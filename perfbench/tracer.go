package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one wrapped layer boundary.
type spanKind uint8

const (
	spPack       spanKind = iota // mad: BeginPacking → EndPacking (Submit and any pump it runs)
	spDeliver                    // mad: the engine's Deliver upcall into the session
	spApp                        // the benchmark's own receive handler
	spActivation                 // core: one idle upcall (NIC-idle activation)
	spBuild                      // strategy: one PlanBuilder.Build
	spPost                       // drivers: one Driver.Post
	spRecv                       // proto: one receive upcall (inbound frame)
	numKinds
)

var kindNames = [numKinds]string{"mad.pack", "mad.deliver", "app.handler", "core.activation", "strategy.build", "drivers.post", "proto.recv"}

// kindLayer is the ledger line each span's self time is charged to.
var kindLayer = [numKinds]string{"mad", "mad", "app", "core", "strategy", "drivers", "proto"}

// sampleDuration marks the kinds whose percentiles are of the full span
// duration; every other kind's are of self time. mad.pack is defined to
// include the Submit and the pumps it runs.
var sampleDuration = [numKinds]bool{spPack: true}

// openSpan is a span on some goroutine's stack.
type openSpan struct {
	id, parent, root uint64
	kind             spanKind
	start            int64
	child            int64           // ns covered by direct children
	desc             [numKinds]int32 // descendants by kind
}

// gstate is one goroutine's span stack and finished-span samples. Only its
// goroutine pushes and pops; the mutex orders those accesses with the final
// merge and with a later goroutine that reuses the same descriptor.
type gstate struct {
	mu      sync.Mutex
	stack   []openSpan
	samples [numKinds][]uint32 // ns: self time, or duration (sampleDuration)
	selfSum [numKinds]int64    // ns
	durSum  [numKinds]int64    // ns
	desc    [numKinds][numKinds]int64
}

// rawSpan is one recorded span as written to the span dump.
type rawSpan struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Root   uint64 `json:"root"` // the outermost span of the chain: spans of one cause share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const gslots = 1024 // goroutines the tracer can tell apart; far above what one stack runs

// tracer records spans at the wrapped layer boundaries. Spans nest per
// goroutine, so a span's self time excludes exactly the wrapped calls made
// from inside it on the same goroutine. Everything stays in memory: per-kind
// sample arrays for the statistics and the first len(raw) spans for the
// dump written when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	keys  [gslots]atomic.Uintptr
	vals  [gslots]atomic.Pointer[gstate]
	raw   []rawSpan
	rawN  atomic.Int64
	// on gates recording to the measurement window: set-up and warm-up
	// traffic runs through the same wrappers but records nothing.
	on atomic.Bool
}

func newTracer(rawCap int) *tracer {
	return &tracer{epoch: time.Now(), raw: make([]rawSpan, rawCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// state returns the calling goroutine's gstate, creating it on first use.
func (t *tracer) state() *gstate {
	g := goid()
	h := uint(mix(uint64(g))) % gslots
	for probes := 0; probes < gslots; probes++ {
		i := (h + uint(probes)) % gslots
		switch k := t.keys[i].Load(); {
		case k == g:
			for {
				if st := t.vals[i].Load(); st != nil {
					return st
				}
				runtime.Gosched()
			}
		case k == 0:
			if t.keys[i].CompareAndSwap(0, g) {
				st := &gstate{}
				t.vals[i].Store(st)
				return st
			}
			// Another goroutine took the slot; keep probing.
		}
	}
	panic("perfbench: tracer goroutine table full")
}

// begin opens a span of kind k on the calling goroutine. It returns nil on
// a nil or switched-off tracer, so untraced code paths pay one branch.
func (t *tracer) begin(k spanKind) *gstate {
	if t == nil || !t.on.Load() {
		return nil
	}
	g := t.state()
	id := t.ids.Add(1)
	start := t.now()
	g.mu.Lock()
	s := openSpan{id: id, root: id, kind: k, start: start}
	if n := len(g.stack); n > 0 {
		s.parent, s.root = g.stack[n-1].id, g.stack[n-1].root
	}
	g.stack = append(g.stack, s)
	g.mu.Unlock()
	return g
}

// end closes the innermost span begin opened on g.
func (t *tracer) end(g *gstate) {
	if g == nil {
		return
	}
	end := t.now()
	g.mu.Lock()
	n := len(g.stack) - 1
	s := g.stack[n]
	g.stack = g.stack[:n]
	d, self := end-s.start, end-s.start-s.child
	if sampleDuration[s.kind] {
		g.samples[s.kind] = append(g.samples[s.kind], ns32(d))
	} else {
		g.samples[s.kind] = append(g.samples[s.kind], ns32(self))
	}
	g.selfSum[s.kind] += self
	g.durSum[s.kind] += d
	for k, c := range s.desc {
		g.desc[s.kind][k] += int64(c)
	}
	if n > 0 {
		p := &g.stack[n-1]
		p.child += d
		p.desc[s.kind]++
		for k, c := range s.desc {
			p.desc[k] += c
		}
	}
	g.mu.Unlock()
	if i := t.rawN.Add(1) - 1; i < int64(len(t.raw)) {
		t.raw[i] = rawSpan{ID: s.id, Parent: s.parent, Root: s.root, Name: kindNames[s.kind], Start: s.start, End: end}
	}
}

func ns32(d int64) uint32 {
	switch {
	case d < 0:
		return 0
	case d > 1<<32-1:
		return 1<<32 - 1
	}
	return uint32(d)
}

// spanStats is the merged view of every goroutine's finished spans.
type spanStats struct {
	samples         [numKinds][]uint32 // sorted, ns (see sampleDuration)
	selfSum, durSum [numKinds]float64  // µs
	desc            [numKinds][numKinds]int64
	spans           int64
}

// collect merges all goroutines' samples, releasing the per-goroutine
// copies as it goes. Call it once the traced stack has been closed, so no
// span is still open.
func (t *tracer) collect() *spanStats {
	st := &spanStats{}
	var n [numKinds]int
	for i := range t.vals {
		if g := t.vals[i].Load(); g != nil {
			g.mu.Lock()
			for k := range n {
				n[k] += len(g.samples[k])
			}
			g.mu.Unlock()
		}
	}
	for k := range n {
		st.samples[k] = make([]uint32, 0, n[k])
	}
	for i := range t.vals {
		g := t.vals[i].Load()
		if g == nil {
			continue
		}
		g.mu.Lock()
		for k := range g.samples {
			st.samples[k] = append(st.samples[k], g.samples[k]...)
			g.samples[k] = nil
			st.selfSum[k] += float64(g.selfSum[k]) / 1e3
			st.durSum[k] += float64(g.durSum[k]) / 1e3
			for j := range g.desc[k] {
				st.desc[k][j] += g.desc[k][j]
			}
		}
		g.mu.Unlock()
	}
	for k := range st.samples {
		slices.Sort(st.samples[k])
		st.spans += int64(len(st.samples[k]))
	}
	return st
}

// count returns the number of finished spans of kind k.
func (s *spanStats) count(k spanKind) int { return len(s.samples[k]) }

// at returns percentile p (µs) of kind k's samples, or the highest lower
// percentile they support (see upTo).
func (s *spanStats) at(k spanKind, p float64) float64 {
	v, _ := upTo(s.samples[k], p)
	return float64(v) / 1e3
}

// dump writes the retained raw spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	n := t.rawN.Load()
	if n > int64(len(t.raw)) {
		n = int64(len(t.raw))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.raw[:n] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span dump: %w", err)
	}
	return f.Close()
}
