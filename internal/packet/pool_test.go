package packet

import (
	"bytes"
	"testing"
	"unsafe"
)

func TestAcquireReleaseFrameRoundTrip(t *testing.T) {
	f := AcquireFrame()
	f.Kind = FrameData
	f.Src, f.Dst = 1, 2
	f.Entries = append(f.Entries, Entry{Flow: 1, Payload: []byte("abc")})
	ReleaseFrame(f)

	g := AcquireFrame()
	defer ReleaseFrame(g)
	// Whether or not g is the same struct, it must arrive reset.
	if g.Kind != 0 || g.Src != 0 || g.Dst != 0 || len(g.Entries) != 0 || g.Bulk != nil {
		t.Fatalf("acquired frame not reset: %+v", g)
	}
	if g.Backed() {
		t.Fatal("acquired frame claims a backing buffer")
	}
}

func TestReleaseFrameOnUnpooledFrameIsSafe(t *testing.T) {
	f := &Frame{Kind: FrameAck, Src: 3, Dst: 4, Ctrl: Ctrl{Token: 9}}
	ReleaseFrame(f)
	// An unpooled frame must not be mutated: its creator may still use it.
	if f.Kind != FrameAck || f.Ctrl.Token != 9 {
		t.Fatalf("ReleaseFrame mutated an unpooled frame: %+v", f)
	}
	ReleaseFrame(nil) // and nil is a no-op
}

func TestDoubleReleaseDoesNotDuplicatePoolEntries(t *testing.T) {
	f := AcquireFrame()
	ReleaseFrame(f)
	ReleaseFrame(f) // second release of the same object must be a no-op
	a := AcquireFrame()
	b := AcquireFrame()
	if a == b {
		t.Fatal("double release put the same frame in the pool twice")
	}
	ReleaseFrame(a)
	ReleaseFrame(b)
}

func TestBufPoolSizesAndReuse(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20} {
		b := GetBuf(n)
		if len(b.B) != n {
			t.Fatalf("GetBuf(%d) returned len %d", n, len(b.B))
		}
		PutBuf(b)
	}
	// Oversize buffers are served but not pooled.
	big := GetBuf(1<<20 + 1)
	if len(big.B) != 1<<20+1 {
		t.Fatalf("oversize GetBuf returned len %d", len(big.B))
	}
	PutBuf(big) // must not panic
	PutBuf(nil)
}

func TestReleaseFrameRecyclesUnpinnedBacking(t *testing.T) {
	buf := GetBuf(600)
	f := AcquireFrame()
	f.SetBacking(buf)
	if !f.Backed() {
		t.Fatal("SetBacking did not register")
	}
	ReleaseFrame(f)
	// The buffer went back to its pool; a pinned one must not.
	buf2 := GetBuf(600)
	f2 := AcquireFrame()
	f2.SetBacking(buf2)
	f2.PinBacking()
	keep := buf2.B[:4]
	copy(keep, "keep")
	ReleaseFrame(f2)
	if !bytes.Equal(keep, []byte("keep")) {
		t.Fatal("pinned backing was clobbered")
	}
}

func TestResetDropsPayloadReferences(t *testing.T) {
	f := &Frame{Kind: FrameData, Entries: []Entry{{Payload: []byte("x")}, {Payload: []byte("y")}}}
	f.Bulk = []byte("bulk")
	f.Reset()
	if len(f.Entries) != 0 || f.Bulk != nil {
		t.Fatalf("Reset left state: %+v", f)
	}
	// The backing array must be retained but scrubbed of payload refs.
	es := f.Entries[:cap(f.Entries)]
	for i := range es {
		if es[i].Payload != nil {
			t.Fatal("Reset left a payload reference in the entries backing array")
		}
	}
}

func TestAcquireReleasePacketRoundTrip(t *testing.T) {
	p := AcquirePacket()
	p.Flow, p.Msg, p.Seq, p.Dst, p.Last = 3, 4, 5, 6, true
	p.Payload = []byte("abc")
	ReleasePacket(p)
	if p.Payload != nil || p.Flow != 0 || p.Last {
		t.Fatalf("ReleasePacket left state: %+v", p)
	}

	q := AcquirePacket()
	defer ReleasePacket(q)
	// Whether or not q is the same struct, it must arrive zeroed (apart
	// from its pool flag).
	if q.Flow != 0 || q.Msg != 0 || q.Seq != 0 || q.Dst != 0 || q.Last || q.Payload != nil || q.SubmitSeq != 0 {
		t.Fatalf("acquired packet not reset: %+v", q)
	}
	if !q.pooled {
		t.Fatal("acquired packet not flagged as pooled")
	}
}

func TestReleasePacketOnUnpooledPacketIsNoOp(t *testing.T) {
	payload := []byte("keep")
	p := &Packet{Flow: 1, Msg: 2, Seq: 3, Src: 4, Dst: 5, Class: ClassBulk, Last: true, Payload: payload, SubmitSeq: 9}
	want := *p
	ReleasePacket(p)
	// The creator (a test, a middleware, a workload driver) may still use
	// or resubmit it: nothing may change.
	if p.Flow != want.Flow || p.Msg != want.Msg || p.Seq != want.Seq || p.Src != want.Src ||
		p.Dst != want.Dst || p.Class != want.Class || !p.Last || p.SubmitSeq != want.SubmitSeq ||
		&p.Payload[0] != &payload[0] || string(p.Payload) != "keep" {
		t.Fatalf("ReleasePacket mutated an unpooled packet: %+v", p)
	}
	ReleasePacket(nil) // and nil is a no-op
}

func TestDoubleReleasePacketDoesNotDuplicatePoolEntries(t *testing.T) {
	p := AcquirePacket()
	ReleasePacket(p)
	ReleasePacket(p) // second release of the same object must be a no-op
	a := AcquirePacket()
	b := AcquirePacket()
	if a == b {
		t.Fatal("double release put the same packet in the pool twice")
	}
	ReleasePacket(a)
	ReleasePacket(b)
}

// TestPacketSize pins the packed layout: the pool flag must fit in the
// header word's padding, not cost the receive path's per-frame packet
// batches another word per packet.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 80 {
		t.Fatalf("Packet is %d bytes, want 80", n)
	}
}
