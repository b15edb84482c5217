package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have beyond
// it: with fewer, the value is set by a handful of outliers and does not
// repeat between runs.
const minTail = 10

// tailLevels are the percentiles summarize may report as the tail, highest
// first.
var tailLevels = []float64{99.9, 99, 90, 50}

// summary is the exact order-statistic view of one set of recorded samples:
// the median, the highest percentile with at least minTail samples beyond
// it, and the sample count.
type summary struct {
	N     int
	P50   float64
	Tail  float64 // percentile level of TailV; 100 (the maximum) when nothing qualifies
	TailV float64
}

// rank returns the 1-based nearest-rank index of percentile p in n samples.
// The small offset absorbs rounding in p·n/100 (99.9 has no exact binary
// form), which would otherwise push an exact rank up by one.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-6))
	if r < 1 {
		r = 1
	}
	return r
}

// supports reports whether n samples leave at least minTail beyond
// percentile p.
func supports(p float64, n int) bool { return n-rank(p, n) >= minTail }

// sample is a recorded value: µs as float64, or ns as uint32 (spans).
type sample interface{ ~uint32 | ~float64 }

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile[T sample](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// upTo returns percentile p of sorted samples if they support it, else the
// highest lower level in tailLevels that they do, with the level used.
func upTo[T sample](sorted []T, p float64) (v T, level float64) {
	for _, l := range tailLevels {
		if l <= p && supports(l, len(sorted)) {
			return percentile(sorted, l), l
		}
	}
	return percentile(sorted, 100), 100
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	s.P50 = percentile(xs, 50)
	s.TailV, s.Tail = upTo(xs, 100)
	return s
}

func (s summary) String() string {
	return fmt.Sprintf("p50=%.2f p%g=%.2f n=%d", s.P50, s.Tail, s.TailV, s.N)
}

// median returns the median of xs without reordering it; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
