package main

import "testing"

func TestCheckerSequences(t *testing.T) {
	cases := []struct {
		name      string
		sent      uint64
		delivered []uint64
		want      failures
		verdicts  []verdict
	}{
		{"in order", 3, []uint64{0, 1, 2}, failures{}, []verdict{inOrder, inOrder, inOrder}},
		{"duplicated", 3, []uint64{0, 1, 1, 2}, failures{Duplicate: 1}, []verdict{inOrder, inOrder, duplicate, inOrder}},
		// 2 overtakes 1: both arrive, and each out-of-order delivery is one
		// failed op.
		{"reordered", 3, []uint64{0, 2, 1}, failures{Reorder: 2}, []verdict{inOrder, ahead, late}},
		{"lost", 3, []uint64{0, 2}, failures{Reorder: 1, Lost: 1}, []verdict{inOrder, ahead}},
		{"lost tail", 3, []uint64{0}, failures{Lost: 2}, []verdict{inOrder}},
		{"implausible", 1, []uint64{maxGap + 5}, failures{Corrupt: 1, Lost: 1}, []verdict{corrupted}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newChecker(1)
			for s := uint64(0); s < tc.sent; s++ {
				c.sent(0, s)
			}
			for i, s := range tc.delivered {
				if got := c.deliver(0, s); got != tc.verdicts[i] {
					t.Errorf("delivery %d (seq %d): verdict %d, want %d", i, s, got, tc.verdicts[i])
				}
			}
			if got := c.finish(); got != tc.want {
				t.Errorf("failures %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestCorruptedPayloads(t *testing.T) {
	const seed = 7
	b := make([]byte, msgSize)
	putMsg(b, seed, 3, 42, 1234)
	if f, seq, sub, ok := readMsg(b, seed); !ok || f != 3 || seq != 42 || sub != 1234 {
		t.Fatalf("round trip: flow %d seq %d submit %d ok %v", f, seq, sub, ok)
	}
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 0x10
		if _, _, _, ok := readMsg(c, seed); ok {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	if _, _, _, ok := readMsg(b[:msgSize-1], seed); ok {
		t.Error("truncated payload accepted")
	}
	if _, _, _, ok := readMsg(b, seed+1); ok {
		t.Error("payload accepted under another seed")
	}

	h := make([]byte, bulkHeader)
	putBulkHeader(h, seed, 9)
	if seq, ok := readBulkHeader(h, seed); !ok || seq != 9 {
		t.Fatalf("bulk header round trip: seq %d ok %v", seq, ok)
	}
	h[0] ^= 1
	if _, ok := readBulkHeader(h, seed); ok {
		t.Error("corrupted bulk header accepted")
	}

	// A corrupted delivery counts once and leaves the op outstanding, so an
	// op whose only copy was corrupted is also lost.
	c := newChecker(1)
	c.sent(0, 0)
	c.corrupt()
	if got, want := c.finish(), (failures{Corrupt: 1, Lost: 1}); got != want {
		t.Errorf("failures %+v, want %+v", got, want)
	}
}

func TestSubmitFailureCountsOnce(t *testing.T) {
	c := newChecker(1)
	c.sent(0, 0)
	c.deliver(0, 0)
	c.sent(0, 1)
	c.submitFailed(0, 1)
	if got, want := c.finish(), (failures{Submit: 1}); got != want {
		t.Errorf("failures %+v, want %+v", got, want)
	}
}
