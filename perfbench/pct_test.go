package main

import (
	"sort"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: summarize must sort
	}
	return xs
}

func TestSummarize(t *testing.T) {
	cases := []struct {
		n          int
		p50, tailV float64
		tail       float64
		p99, at99  float64
	}{
		// 1000 samples: p99.9 has one sample beyond it, p99 has ten.
		{n: 1000, p50: 500, tail: 99, tailV: 990, p99: 990, at99: 99},
		// 10000 samples support p99.9 (ten beyond 9990).
		{n: 10000, p50: 5000, tail: 99.9, tailV: 9990, p99: 9900, at99: 99},
		// 100 samples are too few for p99: one sample beyond it. The
		// highest supported level is p90, with ten beyond.
		{n: 100, p50: 50, tail: 90, tailV: 90, p99: 90, at99: 90},
		// 15 samples support only the median (seven beyond p50 is < 10),
		// so the tail reported is the maximum.
		{n: 15, p50: 8, tail: 100, tailV: 15, p99: 15, at99: 100},
	}
	for _, tc := range cases {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || s.TailV != tc.tailV {
			t.Errorf("n=%d: got %+v, want p50 %g p%g=%g", tc.n, s, tc.p50, tc.tail, tc.tailV)
		}
		xs := seq(tc.n)
		sort.Float64s(xs)
		if v, l := upTo(xs, 99); v != tc.p99 || l != tc.at99 {
			t.Errorf("n=%d: upTo(99) = %g at p%g, want %g at p%g", tc.n, v, l, tc.p99, tc.at99)
		}
	}
	if s := summarize(nil); s.N != 0 || s.P50 != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
}
