package packet

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// encode is f's wire form as one contiguous buffer: EncodeVec's segments
// flattened.
func encode(f *Frame) []byte {
	vec, _ := f.EncodeVec(nil, nil)
	return IOVec(vec).Flatten(nil)
}

func TestFrameDataRoundTrip(t *testing.T) {
	f := &Frame{
		Kind: FrameData,
		Src:  3, Dst: 7,
		Entries: []Entry{
			{Flow: 1, Msg: 10, Seq: 0, Last: false, Class: ClassSmall, Recv: RecvExpress, Payload: []byte("header")},
			{Flow: 2, Msg: 99, Seq: 4, Last: true, Class: ClassControl, Recv: RecvCheaper, Payload: []byte{}},
			{Flow: 1, Msg: 10, Seq: 1, Last: true, Class: ClassBulk, Recv: RecvCheaper, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		},
	}
	enc := encode(f)
	if len(enc) != f.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(enc), f.WireSize())
	}
	got := &Frame{}
	n, err := DecodeInto(got, enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.Kind != FrameData || got.Src != 3 || got.Dst != 7 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	for i := range f.Entries {
		w, g := f.Entries[i], got.Entries[i]
		if w.Flow != g.Flow || w.Msg != g.Msg || w.Seq != g.Seq || w.Last != g.Last ||
			w.Class != g.Class || w.Recv != g.Recv || !bytes.Equal(w.Payload, g.Payload) {
			t.Fatalf("entry %d mismatch:\n want %+v\n got  %+v", i, w, g)
		}
	}
}

func TestFrameCtrlRoundTrip(t *testing.T) {
	for _, kind := range []FrameKind{FrameRTS, FrameCTS, FrameAck, FrameGet} {
		f := &Frame{
			Kind: kind, Src: 1, Dst: 2,
			Ctrl: Ctrl{Token: 123456789, Flow: 4, Msg: 5, Seq: 6, Size: 70000, Last: true},
		}
		enc := encode(f)
		if len(enc) != f.WireSize() {
			t.Fatalf("%v: encoded %d, WireSize %d", kind, len(enc), f.WireSize())
		}
		got := &Frame{}
		if _, err := DecodeInto(got, enc); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got.Ctrl != f.Ctrl {
			t.Fatalf("%v: ctrl mismatch %+v vs %+v", kind, got.Ctrl, f.Ctrl)
		}
	}
}

func TestFrameBulkRoundTrip(t *testing.T) {
	for _, kind := range []FrameKind{FrameRData, FramePut, FrameGetReply} {
		f := &Frame{
			Kind: kind, Src: 9, Dst: 1,
			Ctrl: Ctrl{Token: 7, Flow: 1, Msg: 2, Seq: 3, Size: 1000},
			Bulk: bytes.Repeat([]byte{0x5A}, 1000),
		}
		enc := encode(f)
		got := &Frame{}
		n, err := DecodeInto(got, enc)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if n != len(enc) || !bytes.Equal(got.Bulk, f.Bulk) {
			t.Fatalf("%v: bulk mismatch", kind)
		}
		if got.PayloadSize() != 1000 {
			t.Fatalf("%v: PayloadSize = %d", kind, got.PayloadSize())
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	var into Frame
	if _, err := DecodeInto(&into, nil); err != ErrTruncated {
		t.Fatalf("nil: %v", err)
	}
	if _, err := DecodeInto(&into, make([]byte, 4)); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	bad := encode(&Frame{Kind: FrameData, Src: 1, Dst: 2})
	bad[0] = 0xFF
	if _, err := DecodeInto(&into, bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	bad = encode(&Frame{Kind: FrameData, Src: 1, Dst: 2})
	bad[2] = 0x7F
	if _, err := DecodeInto(&into, bad); err != ErrBadKind {
		t.Fatalf("kind: %v", err)
	}
	// Truncated entry payload.
	f := &Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{{Payload: []byte("hello")}}}
	enc := encode(f)
	if _, err := DecodeInto(&into, enc[:len(enc)-2]); err != ErrTruncated {
		t.Fatalf("truncated payload: %v", err)
	}
	// Truncated ctrl.
	cf := &Frame{Kind: FrameRTS, Src: 1, Dst: 2}
	cenc := encode(cf)
	if _, err := DecodeInto(&into, cenc[:HeaderSize+3]); err != ErrTruncated {
		t.Fatalf("truncated ctrl: %v", err)
	}
	// Truncated bulk.
	bf := &Frame{Kind: FramePut, Src: 1, Dst: 2, Bulk: []byte("0123456789")}
	benc := encode(bf)
	if _, err := DecodeInto(&into, benc[:len(benc)-1]); err != ErrTruncated {
		t.Fatalf("truncated bulk: %v", err)
	}
}

func TestDecodeConsumesExactlyOneFrame(t *testing.T) {
	a := encode(&Frame{Kind: FrameAck, Src: 1, Dst: 2, Ctrl: Ctrl{Token: 1}})
	b := encode(&Frame{Kind: FrameAck, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 2}})
	stream := append(append([]byte{}, a...), b...)
	var f1, f2 Frame
	n1, err := DecodeInto(&f1, stream)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := DecodeInto(&f2, stream[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(stream) {
		t.Fatal("two frames did not consume the stream")
	}
	if f1.Ctrl.Token != 1 || f2.Ctrl.Token != 2 {
		t.Fatal("frame order scrambled")
	}
}

func TestEntryPacketConversion(t *testing.T) {
	p := &Packet{Flow: 3, Msg: 4, Seq: 5, Last: true, Src: 1, Dst: 2,
		Class: ClassRMA, Recv: RecvExpress, Payload: []byte("x")}
	e := EntryFromPacket(p)
	if e.Flow != p.Flow || e.Msg != p.Msg || e.Seq != p.Seq ||
		e.Last != p.Last || e.Class != p.Class || e.Recv != p.Recv ||
		!bytes.Equal(e.Payload, p.Payload) {
		t.Fatalf("conversion lost fields: %+v vs %+v", e, p)
	}
}

func TestFrameStrings(t *testing.T) {
	d := &Frame{Kind: FrameData, Entries: []Entry{{Payload: []byte("abc")}}}
	if s := d.String(); !bytes.Contains([]byte(s), []byte("DATA")) {
		t.Fatalf("data frame string: %q", s)
	}
	c := &Frame{Kind: FrameRTS}
	if s := c.String(); !bytes.Contains([]byte(s), []byte("RTS")) {
		t.Fatalf("ctrl frame string: %q", s)
	}
	if FrameKind(200).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

// Property: any data frame with random well-formed entries round-trips.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(src, dst uint8, flows []uint8, sizes []uint8) bool {
		fr := &Frame{Kind: FrameData, Src: NodeID(src), Dst: NodeID(dst)}
		n := len(flows)
		if len(sizes) < n {
			n = len(sizes)
		}
		if n > 20 {
			n = 20
		}
		for i := 0; i < n; i++ {
			fr.Entries = append(fr.Entries, Entry{
				Flow:    FlowID(flows[i]),
				Msg:     MsgID(i * 7),
				Seq:     i,
				Last:    i%2 == 0,
				Class:   ClassID(flows[i] % uint8(NumClasses)),
				Recv:    RecvMode(flows[i] % 2),
				Payload: bytes.Repeat([]byte{flows[i]}, int(sizes[i])),
			})
		}
		enc := encode(fr)
		got := &Frame{}
		used, err := DecodeInto(got, enc)
		if err != nil || used != len(enc) {
			return false
		}
		if len(got.Entries) != len(fr.Entries) {
			return false
		}
		for i := range fr.Entries {
			w, g := fr.Entries[i], got.Entries[i]
			if w.Flow != g.Flow || w.Msg != g.Msg || w.Seq != g.Seq ||
				w.Last != g.Last || w.Class != g.Class || w.Recv != g.Recv {
				return false
			}
			if !bytes.Equal(w.Payload, g.Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIOVec(t *testing.T) {
	v := IOVec{[]byte("ab"), []byte("cde"), nil, []byte("f")}
	flat := v.Flatten(nil)
	if string(flat) != "abcdef" {
		t.Fatalf("Flatten = %q", flat)
	}
	// Flatten reuses dst capacity.
	buf := make([]byte, 0, 16)
	flat2 := v.Flatten(buf)
	if &flat2[0] != &buf[:1][0] {
		t.Fatal("Flatten did not reuse capacity")
	}
	if !reflect.DeepEqual(flat, flat2) {
		t.Fatal("Flatten results differ")
	}
}

// --- pooling-aware codec -------------------------------------------------

func TestDecodeIntoReusesEntries(t *testing.T) {
	f1 := &Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{
		{Flow: 1, Msg: 1, Seq: 0, Payload: []byte("one")},
		{Flow: 2, Msg: 1, Seq: 0, Last: true, Payload: []byte("two")},
	}}
	enc := encode(f1)

	var into Frame
	n, err := DecodeInto(&into, enc)
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeInto: n=%d err=%v", n, err)
	}
	prevCap := cap(into.Entries)

	// A second decode of a smaller frame must reuse the backing array.
	f2 := &Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{
		{Flow: 3, Msg: 1, Seq: 0, Last: true, Payload: []byte("three")},
	}}
	enc2 := encode(f2)
	if _, err := DecodeInto(&into, enc2); err != nil {
		t.Fatal(err)
	}
	if cap(into.Entries) != prevCap {
		t.Fatalf("Entries backing array not reused: cap %d -> %d", prevCap, cap(into.Entries))
	}
	if len(into.Entries) != 1 || string(into.Entries[0].Payload) != "three" {
		t.Fatalf("bad reuse decode: %+v", into.Entries)
	}
	// Control decode into the same frame must clear data-frame state.
	ctrl := &Frame{Kind: FrameAck, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 5}}
	if _, err := DecodeInto(&into, encode(ctrl)); err != nil {
		t.Fatal(err)
	}
	if len(into.Entries) != 0 || into.Ctrl.Token != 5 {
		t.Fatalf("stale state after control decode: %+v", into)
	}
}

func TestDecodeClampsEntryPrealloc(t *testing.T) {
	// A header whose count field demands 65535 entries over an empty body
	// must fail with ErrTruncated without ever allocating room for them.
	bomb := encode(&Frame{Kind: FrameData, Src: 1, Dst: 2})
	bomb[3], bomb[4] = 0xFF, 0xFF
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeInto(&Frame{}, bomb); err != ErrTruncated {
			t.Fatalf("expected ErrTruncated, got %v", err)
		}
	})
	// One Frame alloc per run is fine; a 64Ki-entry slice (~4 MiB) is not.
	if allocs > 2 {
		t.Fatalf("decode of count-bomb frame cost %.0f allocs/run", allocs)
	}
}

// TestEncodeVecMatchesEncode pins EncodeVec to the bytes of the wire format
// as first specified: frames that are FuzzDecode seeds compare against their
// committed corpus files, the rest against hex captured from the original
// flat encoder.
func TestEncodeVecMatchesEncode(t *testing.T) {
	mustHex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		f    *Frame
		want []byte
	}{
		{&Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{
			{Flow: 1, Msg: 2, Seq: 0, Payload: []byte("head")},
			{Flow: 1, Msg: 2, Seq: 1, Payload: nil}, // empty payload entry
			{Flow: 2, Msg: 1, Seq: 0, Last: true, Class: ClassBulk, Recv: RecvExpress, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		}}, mustHex("4d6100000300000001000000020000000100000000000000020000000000000000046865616400000001000000000000000200000001000000000000000002000000000000000100000000" +
			"0b0000012c" + strings.Repeat("ab", 300))},
		{&Frame{Kind: FrameData, Src: 3, Dst: 4}, mustHex("4d610000000000000300000004")}, // no entries
		{&Frame{Kind: FrameRTS, Src: 0, Dst: 3, Ctrl: Ctrl{Token: 7, Flow: 4, Msg: 5, Seq: 6, Size: 1 << 20, Last: true}},
			fuzzCorpusSeed(t, "seed-RTS-1")},
		{&Frame{Kind: FrameRData, Src: 0, Dst: 3, Ctrl: Ctrl{Token: 7, Flow: 4, Seq: 6, Size: 64}, Bulk: bytes.Repeat([]byte{0xCD}, 64)},
			fuzzCorpusSeed(t, "seed-RDATA-3")},
		{&Frame{Kind: FramePut, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 9}, Bulk: nil}, // empty bulk
			mustHex("4d610400000000000200000001000000000000000900000000000000000000000000000000000000000000000000")},
		{&Frame{Kind: FrameAck, Src: 5, Dst: 6, Ctrl: Ctrl{Token: 11}},
			mustHex("4d610700000000000500000006000000000000000b000000000000000000000000000000000000000000")},
	}
	var vec [][]byte
	var meta []byte
	for _, c := range cases {
		// Pre-existing meta bytes (a transport length prefix) must become
		// the head of the first segment.
		meta = append(meta[:0], 0xDE, 0xAD)
		vec, meta = c.f.EncodeVec(vec[:0], meta)
		var got []byte
		for _, seg := range vec {
			got = append(got, seg...)
		}
		if !bytes.Equal(got[:2], []byte{0xDE, 0xAD}) {
			t.Fatalf("%v: prefix bytes lost", c.f.Kind)
		}
		if !bytes.Equal(got[2:], c.want) {
			t.Fatalf("%v: EncodeVec mismatch\n got %x\nwant %x", c.f.Kind, got[2:], c.want)
		}
		if len(c.want) != c.f.WireSize() {
			t.Fatalf("%v: WireSize %d, encoding is %d bytes", c.f.Kind, c.f.WireSize(), len(c.want))
		}
	}
}

// fuzzCorpusSeed reads one committed FuzzDecode corpus file (the
// "go test fuzz v1" format holding a single []byte value).
func fuzzCorpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", name)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if !ok || !ok2 {
		t.Fatalf("%s: value is not a []byte", name)
	}
	b, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(b)
}

// TestEncodeVecMatchesFuzzCorpus: every frame-kind seed in the committed
// FuzzDecode corpus is exactly EncodeVec's output for the frame
// fuzzSeedFrames builds, so the corpus doubles as the wire format's oracle.
func TestEncodeVecMatchesFuzzCorpus(t *testing.T) {
	for i, f := range fuzzSeedFrames() {
		name := fmt.Sprintf("seed-%s-%d", f.Kind, i)
		if got, want := encode(f), fuzzCorpusSeed(t, name); !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeVec mismatch\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestDecodeBuf: the receive decode step hands back an owned frame backed
// by the buffer, and refuses a buffer the frame does not fill exactly.
func TestDecodeBuf(t *testing.T) {
	src := &Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{
		{Flow: 1, Msg: 1, Seq: 0, Last: true, Payload: []byte("payload")},
	}}
	enc := encode(src)

	b := GetBuf(len(enc))
	copy(b.B, enc)
	f, err := DecodeBuf(b)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Backed() || len(f.Entries) != 1 || string(f.Entries[0].Payload) != "payload" {
		t.Fatalf("decoded frame: backed=%v %+v", f.Backed(), f.Entries)
	}
	if &f.Entries[0].Payload[0] != &b.B[HeaderSize+SubHeaderSize] {
		t.Fatal("payload does not alias the backing buffer")
	}
	ReleaseFrame(f)

	// Three junk bytes after a well-formed frame: the length prefix and
	// the frame disagree, so the whole buffer is corrupt.
	b = GetBuf(len(enc) + 3)
	copy(b.B, enc)
	if f, err := DecodeBuf(b); err != ErrTrailing || f != nil {
		t.Fatalf("trailing bytes: frame %v, err %v", f, err)
	}
	b = GetBuf(len(enc) - 1)
	copy(b.B, enc)
	if f, err := DecodeBuf(b); err != ErrTruncated || f != nil {
		t.Fatalf("short buffer: frame %v, err %v", f, err)
	}
}
