package main

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"newmad/internal/mad"
	"newmad/internal/packet"
)

// env is one booted stack with a workload wired onto it: the delivery
// checker, the op and byte tallies and the latency samples the generators
// and receive handlers share. attempted counts every checked operation a
// generator starts (bulk_mixed's pings included); ops counts only the
// workload's own op.
type env struct {
	seed uint64
	st   *stack
	tr   *tracer      // nil on the untraced stack
	lc   *layerCounts // nil on the untraced stack
	ck   *checker

	epoch     time.Time
	attempted atomic.Int64 // checked operations started
	ops       atomic.Int64 // ops completed in order
	bytes     atomic.Int64 // application payload bytes delivered in order

	// measuring gates latency sampling to the measurement window.
	measuring atomic.Bool
	latMu     sync.Mutex
	lat       []float64 // µs, the current slice's samples
	spare     []float64 // the previous slice's buffer, reused (takeLat only)
}

func (e *env) nowNs() int64 { return int64(time.Since(e.epoch)) }

func (e *env) sample(submitNs int64) {
	if !e.measuring.Load() {
		return
	}
	us := float64(e.nowNs()-submitNs) / 1e3
	e.latMu.Lock()
	e.lat = append(e.lat, us)
	e.latMu.Unlock()
}

// sliceLat holds the exact order statistics of one slice's latency samples.
type sliceLat struct {
	n        int
	p50, p99 float64
}

// takeLat returns the statistics of the samples recorded since the
// previous call and starts a new slice. Only one slice's samples are held
// at a time, so the benchmark's own memory does not grow with throughput
// and the peak RSS stays the program's.
func (e *env) takeLat() sliceLat {
	e.latMu.Lock()
	buf := e.lat
	e.lat = e.spare[:0]
	e.latMu.Unlock()
	slices.Sort(buf)
	s := sliceLat{n: len(buf), p50: percentile(buf, 50)}
	s.p99, _ = upTo(buf, 99)
	e.spare = buf
	return s
}

// frag is one fragment of an outbound message, always packed SendCheaper.
type frag struct {
	b    []byte
	recv packet.RecvMode
}

// pack sends one message as a pack span, turning a Submit failure (mad
// panics on one) into an error.
func (e *env) pack(conn *mad.Connection, frags ...frag) (err error) {
	g := e.tr.begin(spPack)
	defer func() {
		e.tr.end(g)
		if r := recover(); r != nil {
			err = fmt.Errorf("submit: %v", r)
		}
	}()
	m := conn.BeginPacking()
	for _, f := range frags {
		m.Pack(f.b, mad.SendCheaper, f.recv)
	}
	m.EndPacking()
	return nil
}

// notePeak samples the sending engine's backlog after a submit (traced
// runs only).
func (e *env) notePeak() {
	if e.lc != nil && e.tr.on.Load() {
		e.lc.notePeak(e.st.engines[0].BacklogLen())
	}
}

// workload is one traffic mix. wire installs its receive handlers on a
// fresh env (channels are created in the same order on both nodes) and
// returns the runner that drives its generators.
type workload struct {
	name   string
	why    string
	flows  int // checker flows
	warmup int // ops per generator in the warm-up
	wire   func(e *env) runner
}

// runner drives one wired env's generators until stop closes or, when
// limit > 0, until each generator has started limit ops, and returns once
// they have all exited.
type runner func(stop <-chan struct{}, limit int) error

var workloads = []workload{
	{
		name:   "msgrate_small",
		why:    "16 flows of 64-byte messages, window 16: the multi-flow small-message case where per-packet cost dominates and cross-flow aggregation works",
		flows:  msgFlows,
		warmup: 5000,
		wire:   wireMsgRate,
	},
	{
		name:   "pingpong_rpc",
		why:    "one 64-byte express request outstanding, reply from the handler: the RPC latency path, where the backlog stays at one packet and aggregation is bypassed",
		flows:  2,
		warmup: 1000,
		wire:   wirePingPong,
	},
	// bulk_mixed is not listed in BENCHMARK.json: on a shared 2-CPU host
	// its run-to-run spread exceeds the bounds a regression gate can use
	// (METRICS.md). It stays runnable by name, for the rendezvous path and
	// the traced layer split.
	{
		name:   "bulk_mixed",
		why:    "256 KiB rendezvous messages, window 4, beside 64-byte express ping-pongs: byte-bound large writev traffic with small control traffic waiting behind it",
		flows:  3,
		warmup: 32,
		wire:   wireBulkMixed,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- msgrate_small -------------------------------------------------------

const (
	msgFlows  = 16
	msgWindow = 16
	// msgLatEvery: one message in msgLatEvery (by sequence number within
	// its flow) is a latency sample. Sorting every message's sample would
	// cost the run more CPU than the figures need; the sampled set still
	// gives thousands of samples per slice.
	msgLatEvery = 16
	// msgRing is the number of payload buffers the generator cycles
	// through. SendCheaper lets the library read a buffer until its frame
	// is written; a buffer is reused msgRing sends later, by which time the
	// window (msgWindow < msgRing) guarantees its message was delivered.
	msgRing = 4 * msgWindow
)

func wireMsgRate(e *env) runner {
	s0, s1 := e.st.sessions[0], e.st.sessions[1]
	conns := make([]*mad.Connection, msgFlows)
	window := make(chan struct{}, msgWindow) // a token per message in flight
	for f := 0; f < msgFlows; f++ {
		name := fmt.Sprintf("m%d", f)
		conns[f] = s0.Channel(name).Connect(1)
		f := f
		s1.Channel(name).OnMessage(func(_ packet.NodeID, msg *mad.Incoming) {
			g := e.tr.begin(spApp)
			e.receiveSmall(f, msg)
			select {
			case <-window:
			default:
			}
			e.tr.end(g)
		})
	}
	r := rng{e.seed ^ 0x5eed}
	seqs := make([]uint64, msgFlows)
	ring := make([]byte, msgRing*msgSize)
	next := 0
	return func(stop <-chan struct{}, limit int) error {
		for n := 0; limit == 0 || n < limit; n++ {
			select {
			case window <- struct{}{}:
			case <-stop:
				return nil
			}
			f := r.intn(msgFlows)
			seq := seqs[f]
			seqs[f]++
			buf := ring[next*msgSize : (next+1)*msgSize]
			next = (next + 1) % msgRing
			putMsg(buf, e.seed, uint32(f), seq, e.nowNs())
			e.ck.sent(f, seq)
			e.attempted.Add(1)
			if err := e.pack(conns[f], frag{buf, mad.RecvCheaper}); err != nil {
				e.ck.submitFailed(f, seq)
				return err
			}
			e.notePeak()
		}
		return nil
	}
}

// receiveSmall checks one single-fragment message expected on flow and
// counts it; the latency sample is submit → this handler (one way).
func (e *env) receiveSmall(flow int, msg *mad.Incoming) {
	if len(msg.Fragments) != 1 {
		e.ck.corrupt()
		return
	}
	f, seq, sub, ok := readMsg(msg.Fragments[0], e.seed)
	if !ok || int(f) != flow {
		e.ck.corrupt()
		return
	}
	if e.ck.deliver(flow, seq) == inOrder {
		e.ops.Add(1)
		e.bytes.Add(msgSize)
		if seq%msgLatEvery == 0 {
			e.sample(sub)
		}
	}
}

// ---- ping-pong (pingpong_rpc, and the pings of bulk_mixed) ---------------

// pinger is one closed-loop ping-pong: a 64-byte express request from node
// 0, answered from node 1's receive handler, one outstanding at a time.
// reqFlow and repFlow are its checker flows. Every round trip is checked
// and attempted; countOps also makes it an op (pingpong_rpc) — in
// bulk_mixed only its bytes and latency count toward the metrics.
type pinger struct {
	e                *env
	req, rep         *mad.Connection
	reqFlow, repFlow int
	countOps         bool
	replies          chan struct{}
	reqBuf, repBuf   [msgSize]byte
	next             uint64 // next request sequence number
}

func wirePinger(e *env, channel string, reqFlow, repFlow int, countOps bool) *pinger {
	p := &pinger{
		e: e, reqFlow: reqFlow, repFlow: repFlow, countOps: countOps,
		replies: make(chan struct{}, 1),
	}
	c0, c1 := e.st.sessions[0].Channel(channel), e.st.sessions[1].Channel(channel)
	p.req, p.rep = c0.Connect(1), c1.Connect(0)
	c1.OnMessage(func(_ packet.NodeID, msg *mad.Incoming) {
		g := e.tr.begin(spApp)
		p.serve(msg)
		e.tr.end(g)
	})
	c0.OnMessage(func(_ packet.NodeID, msg *mad.Incoming) {
		g := e.tr.begin(spApp)
		p.complete(msg)
		e.tr.end(g)
	})
	return p
}

// serve runs on node 1: check the request, reply with the same sequence
// number and the request's submit time.
func (p *pinger) serve(msg *mad.Incoming) {
	e := p.e
	if len(msg.Fragments) != 1 {
		e.ck.corrupt()
		return
	}
	f, seq, sub, ok := readMsg(msg.Fragments[0], e.seed)
	if !ok || int(f) != p.reqFlow {
		e.ck.corrupt()
		return
	}
	if e.ck.deliver(p.reqFlow, seq) != inOrder {
		return
	}
	// The previous reply was delivered before this request was sent, so
	// its buffer is free.
	putMsg(p.repBuf[:], e.seed, uint32(p.repFlow), seq, sub)
	e.ck.sent(p.repFlow, seq)
	if err := e.pack(p.rep, frag{p.repBuf[:], mad.RecvExpress}); err != nil {
		e.ck.submitFailed(p.repFlow, seq)
	}
}

// complete runs on node 0: check the reply and release the generator.
func (p *pinger) complete(msg *mad.Incoming) {
	e := p.e
	if len(msg.Fragments) != 1 {
		e.ck.corrupt()
		return
	}
	f, seq, sub, ok := readMsg(msg.Fragments[0], e.seed)
	if !ok || int(f) != p.repFlow {
		e.ck.corrupt()
		return
	}
	if e.ck.deliver(p.repFlow, seq) != inOrder {
		return
	}
	if p.countOps {
		e.ops.Add(1)
	}
	e.bytes.Add(2 * msgSize)
	e.sample(sub)
	select {
	case p.replies <- struct{}{}:
	default:
	}
}

func (p *pinger) run(stop <-chan struct{}, limit int) error {
	e := p.e
	for n := 0; limit == 0 || n < limit; n++ {
		select {
		case <-stop:
			return nil
		default:
		}
		seq := p.next
		p.next++
		putMsg(p.reqBuf[:], e.seed, uint32(p.reqFlow), seq, e.nowNs())
		e.ck.sent(p.reqFlow, seq)
		e.attempted.Add(1)
		if err := e.pack(p.req, frag{p.reqBuf[:], mad.RecvExpress}); err != nil {
			e.ck.submitFailed(p.reqFlow, seq)
			return err
		}
		e.notePeak()
		select {
		case <-p.replies:
		case <-stop:
			return nil
		}
	}
	return nil
}

func wirePingPong(e *env) runner {
	return wirePinger(e, "rpc", 0, 1, true).run
}

// ---- bulk_mixed ----------------------------------------------------------

const (
	bulkSize   = 256 << 10 // above the 64 KiB rendezvous threshold of caps.TCP
	bulkWindow = 4
	bulkBodies = 4 // distinct seed-generated bodies, chosen per message by the seed
	bulkRing   = 4 * bulkWindow
)

func wireBulkMixed(e *env) runner {
	s0, s1 := e.st.sessions[0], e.st.sessions[1]
	bodies := make([][]byte, bulkBodies)
	for i := range bodies {
		bodies[i] = make([]byte, bulkSize)
		fill(bodies[i], e.seed^uint64(i+1)<<48)
	}
	body := func(seq uint32) []byte { return bodies[mix(e.seed^uint64(seq))%bulkBodies] }

	conn := s0.Channel("bulk").Connect(1)
	window := make(chan struct{}, bulkWindow) // a token per message in flight
	s1.Channel("bulk").OnMessage(func(_ packet.NodeID, msg *mad.Incoming) {
		g := e.tr.begin(spApp)
		defer e.tr.end(g)
		defer func() {
			select {
			case <-window:
			default:
			}
		}()
		if len(msg.Fragments) != 2 {
			e.ck.corrupt()
			return
		}
		seq, ok := readBulkHeader(msg.Fragments[0], e.seed)
		if !ok || !bytes.Equal(msg.Fragments[1], body(seq)) {
			e.ck.corrupt()
			return
		}
		if e.ck.deliver(0, uint64(seq)) == inOrder {
			e.ops.Add(1)
			e.bytes.Add(bulkHeader + bulkSize)
		}
	})
	ping := wirePinger(e, "ping", 1, 2, false)

	headers := make([]byte, bulkRing*bulkHeader)
	var next uint32
	bulk := func(stop <-chan struct{}, limit int) error {
		for n := 0; limit == 0 || n < limit; n++ {
			select {
			case window <- struct{}{}:
			case <-stop:
				return nil
			}
			seq := next
			next++
			hdr := headers[int(seq%bulkRing)*bulkHeader:][:bulkHeader]
			putBulkHeader(hdr, e.seed, seq)
			e.ck.sent(0, uint64(seq))
			e.attempted.Add(1)
			if err := e.pack(conn, frag{hdr, mad.RecvExpress}, frag{body(seq), mad.RecvCheaper}); err != nil {
				e.ck.submitFailed(0, uint64(seq))
				return err
			}
			e.notePeak()
		}
		return nil
	}
	return func(stop <-chan struct{}, limit int) error {
		var wg sync.WaitGroup
		var pingErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A bounded warm-up also sends two pings per bulk message.
			pingErr = ping.run(stop, 2*limit)
		}()
		err := bulk(stop, limit)
		wg.Wait()
		if err != nil {
			return err
		}
		return pingErr
	}
}
