// Command perfbench is newmad's end-to-end benchmark over real sockets.
//
// It boots a 2-node, single-rail cluster (caps.TCP, the aggregate bundle,
// no wire pacing) in one process, drives the public mad API from at most
// two generator goroutines, and checks every delivery. Traffic crosses the
// host's loopback, so link rate and wire latency are not measured.
//
//	go run . --workload msgrate_small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced for half the time and then on a
// stack whose layer boundaries are wrapped in spans for the other half,
// and prints the per-layer metrics, the per-op layer ledger and the
// tracing overhead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"newmad/internal/core"
	"newmad/internal/stats"
)

const (
	setupReps     = 9                      // set-ups per untraced run; setup_s is their median
	settle        = 200 * time.Millisecond // generator running before the window opens
	sliceDur      = 250 * time.Millisecond // the window is measured in slices of this length
	warmupTimeout = 20 * time.Second
	drainTimeout  = 5 * time.Second
	watchdog      = 170 * time.Second // a run still going by then reports failure
	spanDumpCap   = 50000             // spans kept for the dump
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed for payload bytes and flow visiting order")
	seconds := flag.Int("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the span dump")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintf(os.Stderr, "), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	fmt.Printf("env: go=%s GOMAXPROCS=%d nproc=%d transport=tcp-loopback (link rate and wire latency not measured)\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d — %s\n", w.name, *seed, *seconds, *trace, w.why)

	time.AfterFunc(watchdog, func() {
		fmt.Println("perfbench: run timed out")
		emit(result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		os.Exit(1)
	})

	var tally runTally
	var metrics map[string]metric
	var err error
	if *trace == 0 {
		metrics, err = runPlain(w, *seed, *seconds, &tally)
	} else {
		metrics, err = runTraced(w, *seed, *seconds, *out, &tally)
	}
	if err != nil {
		fmt.Println("perfbench:", err)
		tally.crashed = true
		emit(tally.result(nil))
		os.Exit(1)
	}
	emit(tally.result(metrics))
}

func emit(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite numbers and strings go in
	}
	fmt.Println(string(b))
}

// runTally accumulates attempted and failed operations over every stack a
// run boots.
type runTally struct {
	attempted int64
	f         failures
	refusals  int64 // Posts the traced stack's rails refused
	crashed   bool
}

func (t *runTally) add(e *env) {
	t.attempted += e.attempted.Load()
	f := e.ck.finish()
	t.f.Corrupt += f.Corrupt
	t.f.Duplicate += f.Duplicate
	t.f.Reorder += f.Reorder
	t.f.Lost += f.Lost
	t.f.Submit += f.Submit
	fmt.Printf("checked: attempted=%d corrupt=%d duplicate=%d reorder=%d lost=%d submit=%d\n",
		e.attempted.Load(), f.Corrupt, f.Duplicate, f.Reorder, f.Lost, f.Submit)
}

func (t *runTally) result(m map[string]metric) result {
	r := result{Attempted: max(t.attempted, 1), Failed: t.f.total() + t.refusals, Metrics: m}
	if t.crashed {
		r.Failed = r.Attempted // a crashed run: error rate 1
	}
	r.Correct = r.Failed == 0
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	fmt.Printf("error_rate: %g (failed %d of %d attempted)\n", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	return r
}

// setUp boots a stack (traced when tr is non-nil), wires the workload and
// runs its fixed warm-up to completion.
func setUp(w workload, seed uint64, tr *tracer, lc *layerCounts) (*env, runner, error) {
	var st *stack
	var err error
	if tr == nil {
		st, err = bootPlain()
	} else {
		st, err = bootTraced(tr, lc)
	}
	if err != nil {
		return nil, nil, err
	}
	e := &env{seed: seed, st: st, tr: tr, lc: lc, ck: newChecker(w.flows), epoch: time.Now()}
	run := w.wire(e)
	stop := make(chan struct{})
	timer := time.AfterFunc(warmupTimeout, func() { close(stop) })
	err = run(stop, w.warmup)
	timer.Stop()
	if err != nil {
		st.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	drain(e)
	return e, run, nil
}

// drain waits until every submitted operation is delivered or the drain
// deadline passes; what is still outstanding then counts as lost.
func drain(e *env) {
	deadline := time.Now().Add(drainTimeout)
	for e.ck.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// snap is one reading at a slice boundary of the measurement window.
type snap struct {
	u          usage
	ops, bytes int64
}

// window is one measured run: the readings at its slice boundaries, each
// slice's latency statistics and the engines' counters at its ends.
type window struct {
	snaps          []snap
	lat            []sliceLat
	eng0, eng1     core.Metrics
	qwait0, qwait1 *stats.Histogram
}

// measure runs the workload's generators for seconds, reading the
// counters at every slice boundary, then stops them and drains.
func measure(e *env, run runner, seconds int) (*window, error) {
	// Start the window from a collected heap, so garbage left by set-up
	// does not decide when the first collections inside it run.
	runtime.GC()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- run(stop, 0) }()
	time.Sleep(settle)

	take := func() snap { return snap{u: readUsage(), ops: e.ops.Load(), bytes: e.bytes.Load()} }
	w := &window{}
	w.eng0, w.qwait0 = e.st.engineTotals(), e.st.queueWait()
	if e.tr != nil {
		e.tr.on.Store(true)
	}
	e.measuring.Store(true)
	e.takeLat()
	w.snaps = append(w.snaps, take())
	tick := time.NewTicker(sliceDur)
	for i := 0; i < int(time.Duration(seconds)*time.Second/sliceDur); i++ {
		select {
		case <-tick.C:
			w.snaps = append(w.snaps, take())
			w.lat = append(w.lat, e.takeLat())
		case err := <-errc:
			tick.Stop()
			if err == nil {
				err = errors.New("generator stopped before the window closed")
			}
			return nil, err
		}
	}
	tick.Stop()
	e.measuring.Store(false)
	if e.tr != nil {
		e.tr.on.Store(false)
	}
	w.eng1, w.qwait1 = e.st.engineTotals(), e.st.queueWait()
	close(stop)
	err := <-errc
	drain(e)
	return w, err
}

// e2e is the end-to-end view of one window or slice.
type e2e struct {
	opsS, goodput, cpuPerOp, allocsPerOp float64
	p50, p99                             float64
	samples                              int     // latency samples behind p50 and p99
	steal                                float64 // share of the machine's CPU stolen by the hypervisor
	ops                                  int64
	wall                                 time.Duration
	gcCycles                             uint64
	gcCPUFrac                            float64
}

// minAvail bounds the steal correction: a slice in which the hypervisor
// took more than half the machine's CPU is counted as if it took half.
const minAvail = 0.5

// between computes the figures from snapshot a to b. Rates are per second
// of the CPU time the hypervisor left to the machine: wall time times one
// minus the steal share (see METRICS.md).
func between(a, b snap) e2e {
	r := e2e{ops: b.ops - a.ops, wall: b.u.wall.Sub(a.u.wall)}
	r.steal, _ = steal(a, b)
	avail := r.wall.Seconds() * max(1-r.steal, minAvail)
	ops := float64(max(r.ops, 1))
	r.opsS = float64(r.ops) / avail
	r.goodput = float64(b.bytes-a.bytes) / avail / 1e6
	r.cpuPerOp = float64((b.u.cpu - a.u.cpu).Nanoseconds()) / 1e3 / ops
	r.allocsPerOp = float64(b.u.mallocs-a.u.mallocs) / ops
	r.gcCycles = b.u.gcCycles - a.u.gcCycles
	if d := b.u.allCPU - a.u.allCPU; d > 0 {
		r.gcCPUFrac = (b.u.gcCPU - a.u.gcCPU) / d
	}
	return r
}

// steal returns the share of the machine's CPU time the hypervisor gave
// to other guests from snapshot a to b; 0 and false without /proc/stat.
func steal(a, b snap) (float64, bool) {
	ha, hb := a.u.host, b.u.host
	if hb.total <= ha.total {
		return 0, false
	}
	return float64(hb.steal-ha.steal) / float64(hb.total-ha.total), true
}

// latencyMedians returns the medians over the slices that recorded
// latency samples of their p50 and p99, and the total sample count.
func (w *window) latencyMedians() (p50, p99 float64, n int) {
	var p50s, p99s []float64
	for _, s := range w.lat {
		if s.n > 0 {
			p50s, p99s = append(p50s, s.p50), append(p99s, s.p99)
			n += s.n
		}
	}
	return median(p50s), median(p99s), n
}

// whole returns the window's figures over its full length; latency is the
// median over its slices.
func (w *window) whole() e2e {
	r := between(w.snaps[0], w.snaps[len(w.snaps)-1])
	r.p50, r.p99, r.samples = w.latencyMedians()
	return r
}

// sliceMedians returns, per figure, the median over the window's slices:
// a slice disturbed by another process on the host moves it less than it
// moves a whole-window figure.
func (w *window) sliceMedians() e2e {
	var opsS, goodput, cpu, allocs []float64
	for i := 1; i < len(w.snaps); i++ {
		s := between(w.snaps[i-1], w.snaps[i])
		opsS = append(opsS, s.opsS)
		goodput = append(goodput, s.goodput)
		cpu = append(cpu, s.cpuPerOp)
		allocs = append(allocs, s.allocsPerOp)
	}
	r := e2e{opsS: median(opsS), goodput: median(goodput), cpuPerOp: median(cpu), allocsPerOp: median(allocs)}
	r.p50, r.p99, r.samples = w.latencyMedians()
	return r
}

func runPlain(w workload, seed uint64, seconds int, tally *runTally) (map[string]metric, error) {
	var setups []float64
	var e *env
	var run runner
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		e, run, err = setUp(w, seed, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			e.st.close()
			tally.add(e)
			// Each set-up starts from a collected heap, as the first did.
			runtime.GC()
		}
	}
	win, err := measure(e, run, seconds)
	e.st.close()
	tally.add(e)
	if err != nil {
		return nil, err
	}
	whole, med := win.whole(), win.sliceMedians()
	fmt.Printf("setup_s: median %.4f of %.4f\n", median(setups), setups)
	fmt.Printf("whole window: ops=%d wall=%v host steal=%.1f%% ops_s=%.1f (%.1f per wall second) goodput_MBps=%.3f cpu_us_per_op=%.3f allocs_per_op=%.3f\n",
		whole.ops, whole.wall.Round(time.Millisecond), 100*whole.steal, whole.opsS, float64(whole.ops)/whole.wall.Seconds(),
		whole.goodput, whole.cpuPerOp, whole.allocsPerOp)
	fmt.Printf("medians over %d x %v slices: ops_s=%.1f goodput_MBps=%.3f cpu_us_per_op=%.3f allocs_per_op=%.3f lat_p50_us=%.2f (exact per slice, %d samples)\n",
		len(win.snaps)-1, sliceDur, med.opsS, med.goodput, med.cpuPerOp, med.allocsPerOp, med.p50, med.samples)
	// The tail is printed, not reported: on a shared 2-CPU host its
	// run-to-run spread is set by the host's scheduling, beyond any bound
	// a regression gate could use (see METRICS.md).
	fmt.Printf("lat_p99_us: %.2f (median over slices; printed only)\n", med.p99)
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"ops_s":         {med.opsS, "1/s"},
		"goodput_MBps":  {med.goodput, "MB/s"},
		"lat_p50_us":    {med.p50, "us"},
		"cpu_us_per_op": {med.cpuPerOp, "us"},
		"allocs_per_op": {med.allocsPerOp, "count"},
		"mem_peak_MiB":  {peakRSSMiB(), "MiB"},
	}, nil
}

func runTraced(w workload, seed uint64, seconds int, out string, tally *runTally) (map[string]metric, error) {
	half := max(1, seconds/2)
	eU, runU, err := setUp(w, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	winU, err := measure(eU, runU, half)
	eU.st.close()
	tally.add(eU)
	if err != nil {
		return nil, err
	}

	tr, lc := newTracer(spanDumpCap), &layerCounts{}
	eT, runT, err := setUp(w, seed, tr, lc)
	if err != nil {
		return nil, err
	}
	winT, err := measure(eT, runT, half)
	eT.st.close()
	tally.add(eT)
	tally.refusals = lc.busyRefusals.Load() + lc.postErrors.Load()
	if err != nil {
		return nil, err
	}
	codec, err := replayCodec(lc.shapes, seed)
	if err != nil {
		return nil, err
	}
	dump := filepath.Join(out, "spans", w.name+".jsonl")
	if err := tr.dump(dump); err != nil {
		return nil, err
	}
	fmt.Printf("spans: first %d of %d written to %s\n", min(tr.rawN.Load(), spanDumpCap), tr.rawN.Load(), dump)
	return layerMetrics(winU, winT, tr.collect(), lc, codec), nil
}
