package main

import (
	"encoding/binary"
	"sync"
)

// Every message the benchmark sends is checked on delivery. A small
// message (msgSize bytes) carries its flow, sequence number, submit time,
// seed-derived filler and a checksum keyed by the seed:
//
//	[0:4)   flow     [4:12) seq     [12:20) submit time (ns)
//	[20:56) filler   [56:64) checksum over [0:56)
//
// A bulk message is an 8-byte header — the sequence number and a keyed
// checksum of it — plus a body the receiver compares byte for byte with
// the one the seed generated for that sequence number.
const (
	msgSize    = 64
	sumOffset  = msgSize - 8
	bulkHeader = 8
)

// mix is the splitmix64 finalizer: the benchmark's hash and its PRNG step.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is a splitmix64 stream; the same seed gives the same sequence.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes seed-derived bytes into b.
func fill(b []byte, seed uint64) {
	r := rng{seed}
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.next())
		b = b[8:]
	}
	if len(b) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(b, w[:])
	}
}

// checksum hashes b (a multiple of 8 bytes) under key.
func checksum(key uint64, b []byte) uint64 {
	h := mix(key ^ 0x6a09e667f3bcc909)
	for ; len(b) >= 8; b = b[8:] {
		h = mix(h ^ binary.LittleEndian.Uint64(b))
	}
	return h
}

// putMsg writes a checked small message into b (len msgSize).
func putMsg(b []byte, seed uint64, flow uint32, seq uint64, submitNs int64) {
	binary.LittleEndian.PutUint32(b[0:], flow)
	binary.LittleEndian.PutUint64(b[4:], seq)
	binary.LittleEndian.PutUint64(b[12:], uint64(submitNs))
	fill(b[20:sumOffset], seed^uint64(flow)<<40^seq)
	binary.LittleEndian.PutUint64(b[sumOffset:], checksum(seed, b[:sumOffset]))
}

// readMsg validates a small message and returns its fields; ok is false
// when the length or checksum is wrong (a corrupted delivery).
func readMsg(b []byte, seed uint64) (flow uint32, seq uint64, submitNs int64, ok bool) {
	if len(b) != msgSize || binary.LittleEndian.Uint64(b[sumOffset:]) != checksum(seed, b[:sumOffset]) {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint32(b[0:]), binary.LittleEndian.Uint64(b[4:]),
		int64(binary.LittleEndian.Uint64(b[12:])), true
}

// putBulkHeader writes the 8-byte header of bulk message seq.
func putBulkHeader(b []byte, seed uint64, seq uint32) {
	binary.LittleEndian.PutUint32(b[0:], seq)
	binary.LittleEndian.PutUint32(b[4:], uint32(mix(seed^uint64(seq))))
}

// readBulkHeader validates a bulk header and returns its sequence number.
func readBulkHeader(b []byte, seed uint64) (seq uint32, ok bool) {
	if len(b) != bulkHeader {
		return 0, false
	}
	seq = binary.LittleEndian.Uint32(b[0:])
	return seq, binary.LittleEndian.Uint32(b[4:]) == uint32(mix(seed^uint64(seq)))
}

// failures counts failed operations by cause.
type failures struct {
	Corrupt   int64 // wrong length, checksum or body bytes
	Duplicate int64 // a sequence number delivered twice
	Reorder   int64 // delivered out of order within its flow
	Lost      int64 // sent but not delivered by the drain deadline
	Submit    int64 // Submit panicked or returned an error
}

func (f failures) total() int64 { return f.Corrupt + f.Duplicate + f.Reorder + f.Lost + f.Submit }

// maxGap bounds how far ahead of the expected sequence number a delivery
// may land before it is treated as corrupt rather than reordered: the
// skipped numbers are remembered one by one.
const maxGap = 1 << 16

// flowCheck tracks one flow's in-order delivery.
type flowCheck struct {
	sent    uint64              // sequence numbers 0..sent-1 were submitted
	next    uint64              // next sequence number expected
	skipped map[uint64]struct{} // below next but not yet delivered
}

// checker verifies deliveries on a set of flows. It is safe for concurrent
// use: each node's receive path calls it from its own reader goroutine.
type checker struct {
	mu    sync.Mutex
	flows []flowCheck
	f     failures
}

func newChecker(flows int) *checker { return &checker{flows: make([]flowCheck, flows)} }

// sent records that seq was submitted on flow (sequence numbers are
// submitted in order starting at 0).
func (c *checker) sent(flow int, seq uint64) {
	c.mu.Lock()
	if seq+1 > c.flows[flow].sent {
		c.flows[flow].sent = seq + 1
	}
	c.mu.Unlock()
}

// verdict classifies one delivery.
type verdict uint8

const (
	inOrder   verdict = iota // the expected sequence number: a completed op
	late                     // a skipped sequence number arriving after a later one
	ahead                    // beyond the expected one: the numbers between were skipped
	duplicate                // delivered before
	corrupted                // flow out of range or an implausible sequence number
)

// deliver records one delivery of seq on flow. Anything but inOrder is a
// failed op.
func (c *checker) deliver(flow int, seq uint64) verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	if flow < 0 || flow >= len(c.flows) {
		c.f.Corrupt++
		return corrupted
	}
	fc := &c.flows[flow]
	switch {
	case seq == fc.next:
		fc.next++
		return inOrder
	case seq < fc.next:
		if _, ok := fc.skipped[seq]; ok {
			delete(fc.skipped, seq)
			c.f.Reorder++
			return late
		}
		c.f.Duplicate++
		return duplicate
	case seq-fc.next > maxGap:
		c.f.Corrupt++
		return corrupted
	default:
		if fc.skipped == nil {
			fc.skipped = make(map[uint64]struct{})
		}
		for s := fc.next; s < seq; s++ {
			fc.skipped[s] = struct{}{}
		}
		fc.next = seq + 1
		c.f.Reorder++
		return ahead
	}
}

// corrupt records a delivery whose bytes failed validation.
func (c *checker) corrupt() {
	c.mu.Lock()
	c.f.Corrupt++
	c.mu.Unlock()
}

// submitFailed records that submitting seq on flow failed: the op counts
// as failed once, not again as lost.
func (c *checker) submitFailed(flow int, seq uint64) {
	c.mu.Lock()
	c.f.Submit++
	if c.flows[flow].sent == seq+1 {
		c.flows[flow].sent = seq
	}
	c.mu.Unlock()
}

// outstanding returns the number of submitted sequence numbers not yet
// delivered on any flow.
func (c *checker) outstanding() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for i := range c.flows {
		fc := &c.flows[i]
		if fc.sent > fc.next {
			n += int64(fc.sent - fc.next)
		}
		n += int64(len(fc.skipped))
	}
	return n
}

// finish counts everything still outstanding as lost and returns the
// failure tally. Call it once, after the drain deadline.
func (c *checker) finish() failures {
	lost := c.outstanding()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.f.Lost += lost
	return c.f
}
