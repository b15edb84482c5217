// Package perf holds the repo's datapath microbenchmarks and the
// allocation-regression tests that keep the zero-alloc steady state honest
// (DESIGN.md §5).
//
// Run with:
//
//	go test -bench . -benchmem ./internal/perf
//
// The benchmarks measure host-side cost of the three hot paths — the eager
// send pump (submit → plan → frame → post), the receive path (decode →
// dispatch → reassemble → deliver), and the wire codec — plus a real TCP
// mesh round-trip for end-to-end context. The TestAllocs* tests pin the
// steady-state allocation budgets; CI fails on regression.
package perf

import (
	"encoding/binary"
	"sync"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
)

// sinkDriver is an always-idle driver that consumes every posted frame
// terminally, exactly as a wire rail's owner goroutine does after the
// bytes hit the socket: the frame is released back to the pool. The
// cheapest possible transfer layer, so engine-side costs dominate.
type sinkDriver struct {
	node   packet.NodeID
	caps   caps.Caps
	onRecv drivers.RecvFunc
}

func newSink(node packet.NodeID) *sinkDriver {
	return &sinkDriver{node: node, caps: caps.MX}
}

func (d *sinkDriver) Name() string                       { return "sink" }
func (d *sinkDriver) Node() packet.NodeID                { return d.node }
func (d *sinkDriver) Caps() caps.Caps                    { return d.caps }
func (d *sinkDriver) Mem() memsim.Model                  { return memsim.DefaultModel() }
func (d *sinkDriver) NumChannels() int                   { return d.caps.Channels }
func (d *sinkDriver) ChannelIdle(ch int) bool            { return true }
func (d *sinkDriver) FirstIdle() (int, bool)             { return 0, true }
func (d *sinkDriver) SetIdleHandler(drivers.IdleFunc)    {}
func (d *sinkDriver) SetRecvHandler(fn drivers.RecvFunc) { d.onRecv = fn }
func (d *sinkDriver) Close() error                       { return nil }

func (d *sinkDriver) Post(ch int, f *packet.Frame, _ simnet.Duration) error {
	packet.ReleaseFrame(f)
	return nil
}

func newEngine(b testing.TB, deliver proto.DeliverFunc) (*core.Engine, *sinkDriver) {
	b.Helper()
	bundle, err := strategy.New("aggregate")
	if err != nil {
		b.Fatal(err)
	}
	sink := newSink(0)
	if deliver == nil {
		deliver = func(d proto.Deliverable) {}
	}
	e, err := core.New(0, core.Options{
		Bundle:  bundle,
		Runtime: simnet.NewRealRuntime(),
		Rails:   []drivers.Driver{sink},
		Deliver: deliver,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e, sink
}

// BenchmarkEagerSend measures the steady-state eager datapath on the send
// side: one Submit driving the full pump (eligibility, plan, frame build,
// post) on an always-idle rail.
func BenchmarkEagerSend(b *testing.B) {
	e, _ := newEngine(b, nil)
	defer e.Close()
	payload := make([]byte, 64)
	p := &packet.Packet{
		Flow: 1, Msg: 1, Src: 0, Dst: 1,
		Class: packet.ClassSmall, Payload: payload,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Submit(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocsEagerSend pins the steady-state eager pump budget at zero
// allocations per submit+pump: the frame, its entries, the view, the
// strategy context and the plan stored in it are all reused.
func TestAllocsEagerSend(t *testing.T) {
	e, _ := newEngine(t, nil)
	defer e.Close()
	payload := make([]byte, 64)
	p := &packet.Packet{
		Flow: 1, Msg: 1, Src: 0, Dst: 1,
		Class: packet.ClassSmall, Payload: payload,
	}
	submit := func() {
		if err := e.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		submit() // warm the pools and scratch buffers
	}
	if allocs := testing.AllocsPerRun(500, submit); allocs > 0 {
		t.Fatalf("eager send pump costs %.2f allocs/op, budget is 0", allocs)
	}
}

// TestAllocsEagerSendWithQuotas pins the same zero budget with admission
// control enabled: the admit path (GCRA rate CAS plus backlog-quota
// charge) is atomics only, so quotas must not cost the steady-state
// Submit an allocation. Only a refusal allocates (its error).
func TestAllocsEagerSendWithQuotas(t *testing.T) {
	bundle, err := strategy.New("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	sink := newSink(0)
	e, err := core.New(0, core.Options{
		Bundle:  bundle,
		Runtime: simnet.NewRealRuntime(),
		Rails:   []drivers.Driver{sink},
		Deliver: func(d proto.Deliverable) {},
		// Quota generous enough that nothing in the loop is refused: the
		// gate pins the admitted path, not the refusal path.
		Quotas: map[packet.TenantID]core.TenantQuota{
			7: {Rate: 1e9, Burst: 1 << 20, Backlog: 1 << 20},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	payload := make([]byte, 64)
	p := &packet.Packet{
		Flow: 1, Msg: 1, Src: 0, Dst: 1,
		Class: packet.ClassSmall, Tenant: 7, Payload: payload,
	}
	submit := func() {
		if err := e.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		submit() // warm the pools and scratch buffers
	}
	if allocs := testing.AllocsPerRun(500, submit); allocs > 0 {
		t.Fatalf("eager send pump with quotas costs %.2f allocs/op, budget is 0", allocs)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// newMadSession binds a mad session to an engine on an always-idle sink
// rail: the collect layer over the cheapest transfer layer.
func newMadSession(tb testing.TB, node packet.NodeID) *mad.Session {
	tb.Helper()
	bundle, err := strategy.New("aggregate")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
		return core.New(node, core.Options{
			Bundle:  bundle,
			Runtime: simnet.NewRealRuntime(),
			Rails:   []drivers.Driver{newSink(node)},
			Deliver: deliver,
		})
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Engine().Close)
	return s
}

// BenchmarkMadPack measures the collect layer's send path for a
// one-fragment message: BeginPacking, Pack, EndPacking, and the Submit
// and pump they drive.
func BenchmarkMadPack(b *testing.B) {
	conn := newMadSession(b, 0).Channel("pack").Connect(1)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := conn.BeginPacking()
		m.Pack(payload, mad.SendCheaper, mad.RecvCheaper)
		m.EndPacking()
	}
}

// TestAllocsMadPack pins the collect layer's send path at the engine's own
// Submit budget (TestAllocsEagerSend): the Message is the connection's,
// the packet comes from the packet pool and goes back to it when its plan
// is consumed, and the held list keeps its backing array.
func TestAllocsMadPack(t *testing.T) {
	conn := newMadSession(t, 0).Channel("pack").Connect(1)
	payload := make([]byte, 64)
	pack := func() {
		m := conn.BeginPacking()
		m.Pack(payload, mad.SendCheaper, mad.RecvCheaper)
		m.EndPacking()
	}
	for i := 0; i < 64; i++ {
		pack() // warm the pools and scratch buffers
	}
	allocs := testing.AllocsPerRun(500, pack)
	if raceEnabled {
		// The race detector makes sync.Pool drop a quarter of all Puts on
		// purpose. With the packet, frame and submit-node pools chained,
		// that alone averages one allocation per message, so the budget
		// holds only in a normal build (CI's allocation gate step).
		t.Skipf("budget not checked under the race detector (measured %.2f allocs/op)", allocs)
	}
	if allocs > 0 {
		t.Fatalf("mad one-fragment pack costs %.2f allocs/op, budget is 0", allocs)
	}
}

// TestAllocsMadReceive pins the collect layer's receive path: one
// single-fragment message through Session.Dispatch to OnMessage costs one
// allocation, the Incoming the handler may keep (its fragment and express
// slices live inline in it).
func TestAllocsMadReceive(t *testing.T) {
	s := newMadSession(t, 0)
	// The flow id node 1 would send channel "recv" on.
	flow := newMadSession(t, 1).Channel("recv").Connect(0).Flow()
	var got *mad.Incoming
	s.Channel("recv").OnMessage(func(_ packet.NodeID, m *mad.Incoming) { got = m })
	payload := make([]byte, 64)
	var msg packet.MsgID
	deliver := func() {
		msg++
		s.Dispatch(proto.Deliverable{Src: 1, Pkt: packet.Packet{
			Flow: flow, Msg: msg, Src: 1, Dst: 0, Last: true,
			Class: packet.ClassSmall, Payload: payload,
		}})
	}
	for i := 0; i < 64; i++ {
		deliver()
	}
	if allocs := testing.AllocsPerRun(500, deliver); allocs > 1 {
		t.Fatalf("mad single-fragment receive costs %.2f allocs/op, budget is 1", allocs)
	}
	if got == nil || got.Msg != msg || len(got.Fragments) != 1 || &got.Fragments[0][0] != &payload[0] {
		t.Fatalf("last delivered message = %+v, want message %d carrying the payload", got, msg)
	}
}

// BenchmarkEagerPumpBacklog measures the pump over a deep multi-flow
// backlog: 64 packets across 8 flows and 4 destinations — the aggregation
// planner's real operating point.
func BenchmarkEagerPumpBacklog(b *testing.B) {
	e, _ := newEngine(b, nil)
	defer e.Close()
	const depth = 64
	payload := make([]byte, 64)
	pkts := make([]*packet.Packet, depth)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Flow: packet.FlowID(i%8 + 1), Msg: 1, Seq: i / 8,
			Src: 0, Dst: packet.NodeID(i%4 + 1),
			Class: packet.ClassSmall, Payload: payload,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			if err := e.Submit(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// receiveHarness drives the receive path exactly as the mesh reader does:
// a pooled buffer is filled with pre-encoded wire bytes, decoded into a
// pooled frame, backed, and handed to the engine's recv handler (which
// dispatches, delivers, and releases frame and buffer). Per-op sequence
// numbers are patched into the template so the reassembler delivers every
// entry in order.
type receiveHarness struct {
	recv    drivers.RecvFunc
	tmpl    []byte
	seqOffs []int
	nextSeq uint32
}

func newReceiveHarness(b testing.TB, entries, payloadLen int) *receiveHarness {
	b.Helper()
	e, sink := newEngine(b, func(d proto.Deliverable) {})
	b.Cleanup(e.Close)
	f := &packet.Frame{Kind: packet.FrameData, Src: 1, Dst: 0}
	for i := 0; i < entries; i++ {
		f.Entries = append(f.Entries, packet.Entry{
			Flow: 7, Msg: 1, Seq: i, Last: i == entries-1,
			Class: packet.ClassSmall, Payload: make([]byte, payloadLen),
		})
	}
	buf := wireBytes(f)
	// Seq lives 12 bytes into each sub-header (flow and msg come first).
	offs := make([]int, entries)
	off := packet.HeaderSize
	for i := 0; i < entries; i++ {
		offs[i] = off + 12
		off += packet.SubHeaderSize + payloadLen
	}
	return &receiveHarness{recv: sink.onRecv, tmpl: buf, seqOffs: offs}
}

// deliver plays one frame arrival: pooled buffer, DecodeBuf into a pooled
// backed frame, recv upcall — the mesh reader's exact sequence.
func (h *receiveHarness) deliver(tb testing.TB) {
	for _, off := range h.seqOffs {
		binary.BigEndian.PutUint32(h.tmpl[off:], h.nextSeq)
		h.nextSeq++
	}
	buf := packet.GetBuf(len(h.tmpl))
	copy(buf.B, h.tmpl)
	f, err := packet.DecodeBuf(buf)
	if err != nil {
		tb.Fatal(err)
	}
	h.recv(1, f)
}

// BenchmarkMeshReceive measures the receive path for a 16-entry aggregated
// frame — the aggregation depth the paper's cross-flow claim is about:
// wire decode into a pooled frame, protocol dispatch (payload copy-out),
// reassembly, delivery upcall, frame+buffer recycling.
func BenchmarkMeshReceive(b *testing.B) {
	h := newReceiveHarness(b, 16, 64)
	b.SetBytes(int64(len(h.tmpl)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.deliver(b)
	}
}

// TestAllocsMeshReceive pins the steady-state receive budget for an
// 8-entry frame: one payload block (it escapes to the application as the
// delivered payload slices) and nothing else — buffer, frame, entries,
// packets and the pending-delivery slice all recycle. Budget 2 leaves one
// alloc of slack for pools a concurrent GC emptied mid-run.
func TestAllocsMeshReceive(t *testing.T) {
	h := newReceiveHarness(t, 8, 64)
	for i := 0; i < 64; i++ {
		h.deliver(t)
	}
	if allocs := testing.AllocsPerRun(500, func() { h.deliver(t) }); allocs > 2 {
		t.Fatalf("mesh receive path costs %.2f allocs/op for an 8-entry frame, budget is 2", allocs)
	}
}

// BenchmarkEncodeVec measures the vectored encoder (headers into scratch,
// payloads by reference) the wire rails serialize with.
func BenchmarkEncodeVec(b *testing.B) {
	f := benchFrame(8, 64)
	var vec [][]byte
	var meta []byte
	b.SetBytes(int64(f.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta = append(meta[:0], 0, 0, 0, 0)
		vec, meta = f.EncodeVec(vec[:0], meta)
	}
	_ = vec
}

// TestAllocsEncodeVec pins the vectored encoder at zero steady-state
// allocations — it is what every wire frame pays on the rail owner.
func TestAllocsEncodeVec(t *testing.T) {
	f := benchFrame(8, 64)
	var vec [][]byte
	var meta []byte
	op := func() {
		meta = append(meta[:0], 0, 0, 0, 0)
		vec, meta = f.EncodeVec(vec[:0], meta)
	}
	op()
	if allocs := testing.AllocsPerRun(500, op); allocs > 0 {
		t.Fatalf("EncodeVec costs %.2f allocs/op, budget is 0", allocs)
	}
}

// BenchmarkDecodeInto measures the pooling-aware decoder the wire readers
// use: entries reuse the target frame's backing array.
func BenchmarkDecodeInto(b *testing.B) {
	f := benchFrame(8, 64)
	buf := wireBytes(f)
	var into packet.Frame
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packet.DecodeInto(&into, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocsDecodeInto pins the reusing decoder at zero steady-state
// allocations.
func TestAllocsDecodeInto(t *testing.T) {
	f := benchFrame(8, 64)
	buf := wireBytes(f)
	var into packet.Frame
	op := func() {
		if _, err := packet.DecodeInto(&into, buf); err != nil {
			t.Fatal(err)
		}
	}
	op()
	if allocs := testing.AllocsPerRun(500, op); allocs > 0 {
		t.Fatalf("DecodeInto costs %.2f allocs/op, budget is 0", allocs)
	}
}

// wireBytes is f's wire form as one contiguous buffer.
func wireBytes(f *packet.Frame) []byte {
	vec, _ := f.EncodeVec(nil, nil)
	return packet.IOVec(vec).Flatten(nil)
}

func benchFrame(entries, payloadLen int) *packet.Frame {
	f := &packet.Frame{Kind: packet.FrameData, Src: 0, Dst: 1}
	for i := 0; i < entries; i++ {
		f.Entries = append(f.Entries, packet.Entry{
			Flow: packet.FlowID(i%4 + 1), Msg: 1, Seq: i, Last: true,
			Class: packet.ClassSmall, Payload: make([]byte, payloadLen),
		})
	}
	return f
}

// BenchmarkMeshRoundTrip measures one request-response over a real 2-node
// TCP mesh: the full engine + socket datapath in both directions, vectored
// writes and pooled receive lifecycle included.
func BenchmarkMeshRoundTrip(b *testing.B) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	bundle, err := strategy.New("aggregate")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{}, 1)
	engines := make([]*core.Engine, 2)
	var mu sync.Mutex
	echoSeq := 0
	for i := 0; i < 2; i++ {
		i := i
		e, err := core.New(packet.NodeID(i), core.Options{
			Bundle:  bundle,
			Runtime: simnet.NewRealRuntime(),
			Rails:   []drivers.Driver{nodes[i]},
			Deliver: func(d proto.Deliverable) {
				if i == 1 {
					// Echo node: bounce a reply per received packet.
					mu.Lock()
					seq := echoSeq
					echoSeq++
					mu.Unlock()
					reply := &packet.Packet{
						Flow: 2, Msg: 1, Seq: seq, Src: 1, Dst: 0,
						Class: packet.ClassSmall, Payload: d.Pkt.Payload,
					}
					if err := engines[1].Submit(reply); err != nil {
						panic(err)
					}
				} else {
					done <- struct{}{}
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		engines[i] = e
		defer e.Close()
	}
	payload := make([]byte, 64)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &packet.Packet{
			Flow: 1, Msg: 1, Seq: i, Src: 0, Dst: 1,
			Class: packet.ClassSmall, Payload: payload,
		}
		if err := engines[0].Submit(p); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// BenchmarkSpanObserve measures the telemetry substrate's per-sample cost
// in isolation: one histogram insert behind a per-cell mutex, with
// pre-resolved integer indices — the price every datapath stamp pays.
func BenchmarkSpanObserve(b *testing.B) {
	sp := stats.NewSpans(5, int(packet.NumClasses), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Observe(1, int(packet.ClassSmall), i&1, float64(100+i&1023))
	}
}

// TestAllocsSpanObserve pins the telemetry observation budget at zero:
// recording a latency sample into a warmed span family must not allocate,
// or the always-on spans would erode the eager-pump and receive-path
// gates above. (A cold histogram allocates its bucket map and grows its
// reservoir — amortized away here by warming, exactly as the engines
// warm during their first packets.)
func TestAllocsSpanObserve(t *testing.T) {
	sp := stats.NewSpans(5, int(packet.NumClasses), 2)
	var n int
	observe := func() {
		sp.Observe(1, int(packet.ClassSmall), n&1, float64(100+n&1023))
		n++
	}
	for i := 0; i < 4096; i++ {
		observe() // warm the bucket maps and fill the reservoirs
	}
	if allocs := testing.AllocsPerRun(1000, observe); allocs > 0 {
		t.Fatalf("span observe costs %.2f allocs/op, budget is 0", allocs)
	}
}
