package main

import (
	"bytes"
	"fmt"
	"time"

	"newmad/internal/packet"
)

// frameShape is a posted frame's layout without its bytes: enough to
// rebuild an equivalent frame for the codec replay. Payload bytes are not
// copied at Post (the replay fills its own), which keeps sampling cheap.
type frameShape struct {
	kind     packet.FrameKind
	src, dst packet.NodeID
	entries  []packet.Entry // payloads dropped; their lengths are in lens
	lens     []int
	ctrl     packet.Ctrl
	bulk     int
}

func shapeOf(f *packet.Frame) frameShape {
	s := frameShape{kind: f.Kind, src: f.Src, dst: f.Dst, bulk: len(f.Bulk)}
	if f.Kind != packet.FrameData {
		s.ctrl = f.Ctrl // data frames do not carry it on the wire
	}
	if len(f.Entries) > 0 {
		s.entries = make([]packet.Entry, len(f.Entries))
		s.lens = make([]int, len(f.Entries))
		for i, e := range f.Entries {
			e.Payload, e.Enqueued = nil, 0
			s.entries[i] = e
			s.lens[i] = len(f.Entries[i].Payload)
		}
	}
	return s
}

// frame rebuilds the shape with payload bytes taken from src.
func (s *frameShape) frame(src []byte) *packet.Frame {
	f := &packet.Frame{Kind: s.kind, Src: s.src, Dst: s.dst, Ctrl: s.ctrl}
	off := 0
	for i, e := range s.entries {
		e.Payload = src[off : off+s.lens[i]]
		off += s.lens[i]
		f.Entries = append(f.Entries, e)
	}
	if s.bulk > 0 {
		f.Bulk = src[:s.bulk]
	}
	return f
}

func (s *frameShape) payloadBytes() int {
	n := s.bulk
	for _, l := range s.lens {
		n += l
	}
	return n
}

// codecResult is the packet layer's replay measurement.
type codecResult struct {
	frames      int     // shapes replayed
	encodeUs    float64 // EncodeVec time per frame
	decodeUs    float64 // DecodeInto time per frame
	entriesMean float64 // sub-packets per sampled frame
}

// minReplay is how long each codec timing loop runs at least, so the
// per-frame figure is an average over many passes of the sampled shapes.
const minReplay = 100 * time.Millisecond

// replayCodec re-encodes and decodes the sampled frame shapes with the
// wire codec, checking that every frame survives the round trip.
func replayCodec(shapes []frameShape, seed uint64) (codecResult, error) {
	var res codecResult
	if len(shapes) == 0 {
		return res, nil
	}
	maxPayload, entries := 0, 0
	for i := range shapes {
		maxPayload = max(maxPayload, shapes[i].payloadBytes())
		entries += len(shapes[i].entries)
	}
	src := make([]byte, maxPayload)
	fill(src, seed)
	frames := make([]*packet.Frame, len(shapes))
	wire := make([][]byte, len(shapes))
	var vec [][]byte
	var meta []byte
	for i := range shapes {
		frames[i] = shapes[i].frame(src)
		vec, meta = frames[i].EncodeVec(vec[:0], meta[:0])
		wire[i] = packet.IOVec(vec).Flatten(nil)
		var got packet.Frame
		if _, err := packet.DecodeInto(&got, wire[i]); err != nil {
			return res, fmt.Errorf("codec replay: frame %d: %w", i, err)
		}
		if err := sameFrame(frames[i], &got); err != nil {
			return res, fmt.Errorf("codec replay: frame %d: %w", i, err)
		}
	}

	passes := 0
	t0 := time.Now()
	for time.Since(t0) < minReplay {
		for _, f := range frames {
			vec, meta = f.EncodeVec(vec[:0], meta[:0])
		}
		passes++
	}
	encode := time.Since(t0)

	var dec packet.Frame
	dpasses := 0
	t0 = time.Now()
	for time.Since(t0) < minReplay {
		for _, w := range wire {
			if _, err := packet.DecodeInto(&dec, w); err != nil {
				return res, fmt.Errorf("codec replay: %w", err)
			}
		}
		dpasses++
	}
	decode := time.Since(t0)

	res.frames = len(shapes)
	res.encodeUs = float64(encode.Nanoseconds()) / 1e3 / float64(passes*len(frames))
	res.decodeUs = float64(decode.Nanoseconds()) / 1e3 / float64(dpasses*len(frames))
	res.entriesMean = float64(entries) / float64(len(shapes))
	return res, nil
}

// sameFrame compares every field the wire carries.
func sameFrame(a, b *packet.Frame) error {
	if a.Kind != b.Kind || a.Src != b.Src || a.Dst != b.Dst || a.Ctrl != b.Ctrl {
		return fmt.Errorf("header mismatch: %v vs %v", a, b)
	}
	if len(a.Entries) != len(b.Entries) || !bytes.Equal(a.Bulk, b.Bulk) {
		return fmt.Errorf("body mismatch: %v vs %v", a, b)
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.Flow != y.Flow || x.Msg != y.Msg || x.Seq != y.Seq || x.Last != y.Last ||
			x.Class != y.Class || x.Recv != y.Recv || !bytes.Equal(x.Payload, y.Payload) {
			return fmt.Errorf("entry %d mismatch", i)
		}
	}
	return nil
}
