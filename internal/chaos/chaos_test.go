package chaos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// fakeDriver is a minimal in-memory Driver whose Deliver method plays the
// role of the fabric: whatever the test feeds in arrives at the installed
// recv handler (through the injector, when wrapped).
type fakeDriver struct {
	mu     sync.Mutex
	onRecv drivers.RecvFunc
	posted []*packet.Frame
	closed bool
}

func (d *fakeDriver) Name() string                    { return "fake@n1" }
func (d *fakeDriver) Node() packet.NodeID             { return 1 }
func (d *fakeDriver) Caps() caps.Caps                 { return caps.TCP }
func (d *fakeDriver) Mem() memsim.Model               { return memsim.DefaultModel() }
func (d *fakeDriver) NumChannels() int                { return 2 }
func (d *fakeDriver) ChannelIdle(ch int) bool         { return true }
func (d *fakeDriver) FirstIdle() (int, bool)          { return 0, true }
func (d *fakeDriver) SetIdleHandler(drivers.IdleFunc) {}
func (d *fakeDriver) SetRecvHandler(fn drivers.RecvFunc) {
	d.mu.Lock()
	d.onRecv = fn
	d.mu.Unlock()
}
func (d *fakeDriver) Post(ch int, f *packet.Frame, _ simnet.Duration) error {
	d.mu.Lock()
	d.posted = append(d.posted, f)
	d.mu.Unlock()
	return nil
}
func (d *fakeDriver) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return nil
}
func (d *fakeDriver) Deliver(src packet.NodeID, f *packet.Frame) {
	d.mu.Lock()
	h := d.onRecv
	d.mu.Unlock()
	if h != nil {
		h(src, f)
	}
}

func dataFrame(seq int) *packet.Frame {
	return &packet.Frame{
		Kind: packet.FrameData, Src: 0, Dst: 1,
		Entries: []packet.Entry{{Flow: 1, Msg: 1, Seq: seq, Payload: []byte{byte(seq)}}},
	}
}

// TestInjectorDropDeterministic: the same seed over the same frame
// sequence drops the same frames.
func TestInjectorDropDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		fd := &fakeDriver{}
		inj, err := NewInjector(fd, simnet.NewRNG(seed), Rule{Kind: Drop, Prob: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
			got = append(got, f.Entries[0].Seq)
		})
		for i := 0; i < 200; i++ {
			fd.Deliver(0, dataFrame(i))
		}
		if inj.Injected(Drop) == 0 {
			t.Fatal("nothing dropped at p=0.3 over 200 frames")
		}
		if len(got)+int(inj.Injected(Drop)) != 200 {
			t.Fatalf("accounting: %d delivered + %d dropped != 200", len(got), inj.Injected(Drop))
		}
		return got
	}
	seed := testSeed(t, 7)
	a, b := run(seed), run(seed)
	if len(a) != len(b) {
		t.Fatalf("same seed, different survivor counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at survivor %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(seed + 1)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical drop pattern (astronomically unlikely)")
	}
}

// TestInjectorKindFilter: a drop rule scoped to RTS frames never touches
// data frames.
func TestInjectorKindFilter(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRNG(3),
		Rule{Kind: Drop, Prob: 1.0, Frames: []packet.FrameKind{packet.FrameRTS}})
	if err != nil {
		t.Fatal(err)
	}
	var data, rts int
	inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		switch f.Kind {
		case packet.FrameData:
			data++
		case packet.FrameRTS:
			rts++
		}
	})
	for i := 0; i < 10; i++ {
		fd.Deliver(0, dataFrame(i))
		fd.Deliver(0, &packet.Frame{Kind: packet.FrameRTS, Src: 0, Dst: 1,
			Ctrl: packet.Ctrl{Token: uint64(i + 1), Size: 10}})
	}
	if data != 10 {
		t.Fatalf("data frames delivered: %d of 10 (filter leaked)", data)
	}
	if rts != 0 {
		t.Fatalf("RTS frames delivered: %d of 0 wanted (p=1 drop)", rts)
	}
	if inj.Injected(Drop) != 10 {
		t.Fatalf("drops = %d, want 10", inj.Injected(Drop))
	}
}

// TestInjectorDelayAndReorderLoseNothing: timing faults shuffle arrival,
// never lose or duplicate.
func TestInjectorDelayAndReorderLoseNothing(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRNG(11),
		Rule{Kind: Delay, Prob: 0.2, Delay: 2 * time.Millisecond},
		Rule{Kind: Reorder, Prob: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[int]int{}
	inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		mu.Lock()
		got[f.Entries[0].Seq]++
		mu.Unlock()
	})
	const n = 300
	for i := 0; i < n; i++ {
		fd.Deliver(0, dataFrame(i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		c := len(got)
		mu.Unlock()
		if c == n {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("delivered %d of %d distinct frames", len(got), n)
	}
	for seq, c := range got {
		if c != 1 {
			t.Fatalf("seq %d delivered %d times", seq, c)
		}
	}
	if inj.Injected(Delay)+inj.Injected(Reorder) == 0 {
		t.Fatal("no timing faults fired at p=0.4 over 300 frames")
	}
}

// TestInjectorCloseFlushesHeld: a frame parked in the reorder slot at
// Close still arrives — close is not a fault.
func TestInjectorCloseFlushesHeld(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRNG(5), Rule{Kind: Reorder, Prob: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	delivered := 0
	inj.SetRecvHandler(func(packet.NodeID, *packet.Frame) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	fd.Deliver(0, dataFrame(0)) // held in the reorder slot
	if err := inj.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Fatalf("held frame deliveries at close = %d, want 1", delivered)
	}
	if !fd.closed {
		t.Fatal("inner driver not closed")
	}
}

// TestInjectorCorruptCounts: corruption either mangles the decoded frame
// or destroys the framing; both count, neither panics.
func TestInjectorCorruptCounts(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRNG(9), Rule{Kind: Corrupt, Prob: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	inj.SetRecvHandler(func(packet.NodeID, *packet.Frame) { survivors++ })
	const n = 50
	for i := 0; i < n; i++ {
		fd.Deliver(0, dataFrame(i))
	}
	if inj.Injected(Corrupt) != n {
		t.Fatalf("corruptions = %d, want %d", inj.Injected(Corrupt), n)
	}
	if survivors > n {
		t.Fatalf("corruption multiplied frames: %d survivors of %d", survivors, n)
	}
}

// fingerprintFrame builds a single-entry data frame whose payload
// fingerprints seq in every byte (the ownership tests' construction), so a
// payload overwritten through a recycled buffer cannot pass for intact.
func fingerprintFrame(seq, size int) *packet.Frame {
	payload := make([]byte, size)
	binary.BigEndian.PutUint32(payload, uint32(seq))
	for i := 4; i < len(payload); i++ {
		payload[i] = byte(seq)
	}
	return &packet.Frame{
		Kind: packet.FrameData, Src: 0, Dst: 1,
		Entries: []packet.Entry{{Flow: 1, Msg: 1, Seq: seq, Last: true, Payload: payload}},
	}
}

// wireBytes is f's wire form as one contiguous buffer.
func wireBytes(f *packet.Frame) []byte {
	vec, _ := f.EncodeVec(nil, nil)
	return packet.IOVec(vec).Flatten(nil)
}

// backedFrame plays a wire reader's arrival of f: its encoding in a pooled
// buffer, decoded into a pooled frame that the buffer backs.
func backedFrame(t *testing.T, f *packet.Frame) *packet.Frame {
	enc := wireBytes(f)
	buf := packet.GetBuf(len(enc))
	copy(buf.B, enc)
	bf, err := packet.DecodeBuf(buf)
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestInjectorCorruptSurvivorsArePooled: a corrupted copy arrives the way
// a frame read off a socket does — pooled and backed — and releasing it
// hands its wire buffer back to the buffer pool.
func TestInjectorCorruptSurvivorsArePooled(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRNG(testSeed(t, 9)), Rule{Kind: Corrupt, Prob: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	survivors, recycled := 0, 0
	inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		survivors++
		if !f.Backed() {
			t.Fatalf("corrupted copy is not backed by a wire buffer: %v", f)
		}
		if f.Kind != packet.FrameData || len(f.Entries) != 1 {
			t.Fatalf("a frame that changed shape decoded exactly: %v", f)
		}
		first, size := &f.Entries[0].Payload[0], f.WireSize()
		packet.ReleaseFrame(f)
		// The released buffer is the pool's most recent Put on this P, so
		// one of the next two Gets of its size class returns it (a pool
		// may also drop it: only some of the releases need to show).
		a, b := packet.GetBuf(size), packet.GetBuf(size)
		off := packet.HeaderSize + packet.SubHeaderSize
		if &a.B[off] == first || &b.B[off] == first {
			recycled++
		}
		packet.PutBuf(a)
		packet.PutBuf(b)
	})
	const n = 50
	for i := 0; i < n; i++ {
		fd.Deliver(0, fingerprintFrame(i, 64))
	}
	if survivors == 0 || recycled == 0 {
		t.Fatalf("%d survivors of %d, %d of them seen back in the buffer pool", survivors, n, recycled)
	}
}

// TestInjectorCorruptDeterministic: the same seed over the same arrivals
// yields byte-identical survivors, with backed frames (a wire reader's
// arrivals) released by the injector as it consumes them.
func TestInjectorCorruptDeterministic(t *testing.T) {
	seed := testSeed(t, 21)
	run := func() [][]byte {
		fd := &fakeDriver{}
		inj, err := NewInjector(fd, simnet.NewRNG(seed), Rule{Kind: Corrupt, Prob: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
			got = append(got, wireBytes(f))
			packet.ReleaseFrame(f)
		})
		for i := 0; i < 100; i++ {
			fd.Deliver(0, backedFrame(t, fingerprintFrame(i, 64)))
		}
		return got
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("survivors: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("survivor %d differs between same-seed runs:\n%x\n%x", i, a[i], b[i])
		}
	}
}

// TestInjectorCorruptMeshFingerprints runs corruption over a real socket:
// fingerprinted frames cross a 2-node mesh into an injector that corrupts
// every one. The sink holds every survivor unreleased while later arrivals
// keep taking buffers from the same pools, so a survivor whose buffer was
// recycled while still aliased would change under it. The survivors must
// be byte-identical to those of a same-seed injector fed the same frames
// without a wire, and unchanged when finally released.
func TestInjectorCorruptMeshFingerprints(t *testing.T) {
	const frames, size = 100, 512
	seed := testSeed(t, 33)
	rule := Rule{Kind: Corrupt, Prob: 1.0, Frames: []packet.FrameKind{packet.FrameData}}
	sentinel := &packet.Frame{Kind: packet.FrameAck, Src: 0, Dst: 1, Ctrl: packet.Ctrl{Token: 1 << 40}}

	// Oracle: the same arrivals through a same-seed injector, no wire.
	fd := &fakeDriver{}
	oracle, err := NewInjector(fd, simnet.NewRNG(seed), rule)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	oracle.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		want = append(want, wireBytes(f))
		packet.ReleaseFrame(f)
	})
	for seq := 0; seq < frames; seq++ {
		fd.Deliver(0, fingerprintFrame(seq, size))
	}
	fd.Deliver(0, sentinel)

	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	inj, err := NewInjector(nodes[1], simnet.NewRNG(seed), rule)
	if err != nil {
		t.Fatal(err)
	}
	var held []*packet.Frame
	var got [][]byte
	done := make(chan struct{})
	inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		held = append(held, f)
		got = append(got, wireBytes(f))
		if f.Kind == packet.FrameAck && f.Ctrl.Token == sentinel.Ctrl.Token {
			close(done)
		}
	})
	post := func(f *packet.Frame) {
		for {
			err := nodes[0].Post(0, f, 0)
			if err == nil {
				return
			}
			if !errors.Is(err, drivers.ErrChannelBusy) {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for seq := 0; seq < frames; seq++ {
		post(fingerprintFrame(seq, size))
	}
	post(sentinel)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sentinel frame never arrived")
	}

	if len(got) != len(want) {
		t.Fatalf("%d survivors over the mesh, %d without a wire", len(got), len(want))
	}
	for i, f := range held {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("survivor %d differs from the same-seed oracle:\n got %x\nwant %x", i, got[i], want[i])
		}
		if now := wireBytes(f); !bytes.Equal(now, got[i]) {
			t.Fatalf("survivor %d changed while held — its buffer was recycled while aliased:\narrived %x\n    now %x", i, got[i], now)
		}
		packet.ReleaseFrame(f)
	}
}

// TestRollingFlapsDeterministic: the generator is a pure function of
// (seed, config), and validation catches malformed scripts.
func TestRollingFlapsDeterministic(t *testing.T) {
	cfg := FlapConfig{Nodes: 3, Rails: 2, Flaps: 20,
		Every: 10 * time.Millisecond, DownFor: 4 * time.Millisecond}
	seed := testSeed(t, 42)
	a, err := RollingFlaps(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RollingFlaps(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != 40 || len(b.Events) != 40 {
		t.Fatalf("event counts: %d, %d (want 40: down+heal per flap)", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed diverges at event %d: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	c, err := RollingFlaps(seed+1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Events {
		if a.Events[i] != c.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds generated the identical scenario")
	}
	// Every down has a heal for the same edge, later.
	for i := 0; i < len(a.Events); i += 2 {
		d, h := a.Events[i], a.Events[i+1]
		if d.Op != OpRailDown || h.Op != OpRailHeal {
			t.Fatalf("pair %d: ops %v, %v", i/2, d.Op, h.Op)
		}
		if d.Node != h.Node || d.Peer != h.Peer || d.Rail != h.Rail || h.At <= d.At {
			t.Fatalf("pair %d mismatched: %v / %v", i/2, d, h)
		}
	}
	if err := a.Validate(3, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(2, 2); err == nil {
		t.Fatal("script targeting node 2 validated against a 2-node cluster")
	}
}

// TestTraceDiff: traces compare event-for-event with a readable first
// divergence.
func TestTraceDiff(t *testing.T) {
	var a, b Trace
	e1 := Event{At: time.Millisecond, Op: OpRailDown, Node: 0, Peer: 1, Rail: 0}
	e2 := Event{At: 2 * time.Millisecond, Op: OpRailHeal, Node: 0, Peer: 1, Rail: 0}
	a.Record(e1)
	a.Record(e2)
	b.Record(e1)
	b.Record(e2)
	if !a.Equal(&b) {
		t.Fatalf("identical traces diff: %s", a.Diff(&b))
	}
	b.Record(Event{At: 3 * time.Millisecond, Op: OpCrash, Node: 2})
	if a.Equal(&b) {
		t.Fatal("diverging traces compared equal")
	}
	if d := a.Diff(&b); d == "" {
		t.Fatal("no divergence reported")
	}
}
