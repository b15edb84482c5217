// Package chaos is the repository's deterministic fault-injection layer:
// it wraps transfer-layer drivers in frame-level fault injectors and
// describes connection-level failure scenarios as seed-replayable scripts,
// so every resilience property the engine claims — failover, rendezvous
// retry, exactly-once delivery — is tested against faults that can be
// reproduced event-for-event from a single seed.
//
// Two mechanisms, two fault granularities:
//
//   - An Injector wraps one drivers.Driver (one rail) and applies
//     probabilistic per-frame Rules on the receive path: drop, corrupt,
//     delay, reorder. Receive-side injection never disturbs the send-unit
//     accounting the optimizer depends on, and the decision stream is
//     drawn from an explicitly seeded simnet.RNG — deterministic per
//     *frame arrival sequence*. Over a wall-clock transport with several
//     concurrent sources, arrival interleaving (and so the per-frame fault
//     pattern) varies run to run; only the scripted schedule below is
//     replayable bit-for-bit.
//   - A Script is a timed list of connection-level events — rail flaps,
//     node-pair partitions, node crashes, heals — generated
//     deterministically from a seed (e.g. RollingFlaps) and executed by the
//     cluster runner (internal/cluster), which records each executed event
//     into a Trace. Two runs from the same seed produce identical traces;
//     experiment X5 asserts exactly that.
//
// The fault taxonomy is honest about recoverability (DESIGN.md §3.3):
// delays, reorders, flaps, partitions and control-frame drops are fully
// recoverable — the engine's failover queue, rendezvous retry, and the
// reassembler's sequence-number dedupe turn them back into exactly-once
// delivery. Silent drops and corruptions of *data* frames model faults no
// transport layer can undo without an end-to-end retransmit protocol;
// tests inject them to prove graceful degradation (no wedge, no panic, no
// duplicate), not delivery.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// FaultKind enumerates the frame-level faults an Injector can apply.
type FaultKind uint8

const (
	// Drop discards the frame on arrival.
	Drop FaultKind = iota
	// Corrupt flips random bits in the frame's wire encoding before
	// decoding it again: one that no longer decodes exactly (a wire
	// reader would close the stream) is dropped, one that still decodes
	// arrives damaged — the protocol layer rejects *structural* damage
	// (size mismatches, unknown tokens), while a payload-bit flip is
	// delivered corrupted, since the wire format carries no checksum.
	// Both outcomes are counted.
	Corrupt
	// Delay holds the frame for the rule's Delay before delivering it.
	Delay
	// Reorder holds the frame until the next frame from the same source
	// passes it, swapping their arrival order.
	Reorder
	numFaultKinds
)

// String returns the fault mnemonic.
func (k FaultKind) String() string {
	names := [...]string{"drop", "corrupt", "delay", "reorder"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Rule is one probabilistic per-frame fault.
type Rule struct {
	// Kind selects the fault.
	Kind FaultKind
	// Prob is the per-frame probability in [0, 1].
	Prob float64
	// Frames restricts the rule to the listed frame kinds; empty matches
	// every kind. Restricting drops to RTS/CTS keeps a scenario inside the
	// recoverable taxonomy (the rendezvous retry re-sends control frames;
	// nothing re-sends a silently dropped data frame).
	Frames []packet.FrameKind
	// Delay is the hold time for Delay rules.
	Delay time.Duration
}

// Validate reports the first inconsistency in the rule.
func (r Rule) Validate() error {
	switch {
	case r.Kind >= numFaultKinds:
		return fmt.Errorf("chaos: unknown fault kind %d", r.Kind)
	case r.Prob < 0 || r.Prob > 1:
		return fmt.Errorf("chaos: probability %v outside [0,1]", r.Prob)
	case r.Kind == Delay && r.Delay <= 0:
		return fmt.Errorf("chaos: delay rule with no delay")
	}
	return nil
}

func (r Rule) matches(k packet.FrameKind) bool {
	if len(r.Frames) == 0 {
		return true
	}
	for _, fk := range r.Frames {
		if fk == k {
			return true
		}
	}
	return false
}

// Injector wraps one rail in the frame-level fault rules. It implements
// drivers.Driver (and forwards the optional failure interfaces), so an
// engine runs over injected rails unchanged.
type Injector struct {
	inner drivers.Driver
	rules []Rule

	mu       sync.Mutex
	rng      *simnet.RNG
	onRecv   drivers.RecvFunc
	held     map[packet.NodeID]*heldFrame // one reorder slot per source
	injected [numFaultKinds]uint64
	closed   bool
	wg       sync.WaitGroup
}

type heldFrame struct {
	f     *packet.Frame
	timer *time.Timer // fallback release if no frame follows
}

// NewInjector wraps d with the given rules, drawing fault decisions from
// rng (which the injector owns from here on).
func NewInjector(d drivers.Driver, rng *simnet.RNG, rules ...Rule) (*Injector, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	if rng == nil {
		rng = simnet.NewRNG(0)
	}
	inj := &Injector{
		inner: d,
		rules: append([]Rule(nil), rules...),
		rng:   rng,
		held:  make(map[packet.NodeID]*heldFrame),
	}
	return inj, nil
}

// Inner returns the wrapped driver.
func (in *Injector) Inner() drivers.Driver { return in.inner }

// Injected returns how many faults of kind k the injector has applied.
func (in *Injector) Injected(k FaultKind) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if int(k) >= len(in.injected) {
		return 0
	}
	return in.injected[k]
}

// InjectedTotal returns the total fault count across kinds.
func (in *Injector) InjectedTotal() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := uint64(0)
	for _, v := range in.injected {
		n += v
	}
	return n
}

// SetRecvHandler interposes the fault rules between the rail and fn.
func (in *Injector) SetRecvHandler(fn drivers.RecvFunc) {
	in.mu.Lock()
	in.onRecv = fn
	in.mu.Unlock()
	if fn == nil {
		in.inner.SetRecvHandler(nil)
		return
	}
	in.inner.SetRecvHandler(in.recv)
}

// recv applies the first matching rule drawn for this frame. At most one
// fault applies per frame: compound faults obscure which mechanism
// recovered what.
func (in *Injector) recv(src packet.NodeID, f *packet.Frame) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		// Terminal consumption: a wire frame swallowed here would leak
		// its pooled backing buffer (DESIGN.md §5). Unbacked frames —
		// simulated fabrics, hand-built tests — are left alone.
		if f.Backed() {
			packet.ReleaseFrame(f)
		}
		return
	}
	var verdict *Rule
	for i := range in.rules {
		r := &in.rules[i]
		if !r.matches(f.Kind) {
			continue
		}
		// Always consume one draw per matching rule, whether or not it
		// fires: the decision stream then depends only on the frame
		// sequence, not on which earlier rule happened to fire.
		if in.rng.Float64() < r.Prob && verdict == nil {
			verdict = r
		}
	}
	if verdict == nil {
		deliver := in.takeHeldLocked(src)
		h := in.onRecv
		in.mu.Unlock()
		if deliver != nil && h != nil {
			h(src, deliver)
		}
		if h != nil {
			h(src, f)
		}
		return
	}
	in.injected[verdict.Kind]++
	switch verdict.Kind {
	case Drop:
		in.mu.Unlock()
		// The dropped frame dies here — the injector is its terminal
		// consumer, so a pooled wire frame recycles instead of leaking.
		if f.Backed() {
			packet.ReleaseFrame(f)
		}
	case Corrupt:
		h := in.onRecv
		in.mu.Unlock()
		cf := in.corrupt(f)
		// The corrupted copy travels on as a pooled frame backed by its
		// own wire buffer; the original is terminally consumed here.
		if f.Backed() {
			packet.ReleaseFrame(f)
		}
		if cf != nil && h != nil {
			h(src, cf)
		} else if cf != nil {
			packet.ReleaseFrame(cf)
		}
	case Delay:
		d := verdict.Delay
		h := in.onRecv
		in.wg.Add(1)
		in.mu.Unlock()
		time.AfterFunc(d, func() {
			defer in.wg.Done()
			in.mu.Lock()
			closed := in.closed
			in.mu.Unlock()
			if !closed && h != nil {
				h(src, f)
			} else if f.Backed() {
				// Nobody downstream will consume the held frame.
				packet.ReleaseFrame(f)
			}
		})
	case Reorder:
		displaced := in.holdLocked(src, f)
		h := in.onRecv
		in.mu.Unlock()
		if displaced != nil && h != nil {
			h(src, displaced)
		}
	}
}

// corrupt flips 1–4 random bits in the frame's encoding and re-decodes it
// through the wire readers' decode step, so the copy is a pooled, backed
// frame and the framing checks are a real reader's. The draw count is
// fixed per invocation so the decision stream stays aligned across runs.
func (in *Injector) corrupt(f *packet.Frame) *packet.Frame {
	vec, _ := f.EncodeVec(nil, nil)
	buf := packet.GetBuf(f.WireSize())
	buf.B = packet.IOVec(vec).Flatten(buf.B)
	enc := buf.B
	in.mu.Lock()
	flips := in.rng.Range(1, 4)
	for i := 0; i < flips; i++ {
		enc[in.rng.Intn(len(enc))] ^= byte(1 << in.rng.Intn(8))
	}
	in.mu.Unlock()
	cf, err := packet.DecodeBuf(buf)
	if err != nil {
		return nil // corruption broke the framing: the frame is gone
	}
	return cf
}

// holdLocked stashes f in the source's reorder slot and arms a fallback
// release so a frame with no successor still arrives. A previous occupant
// is displaced and returned for immediate delivery (two swaps degenerate
// to a shuffle, which is fine — the reassembler reorders by sequence
// number); nil when the slot was empty or its timer already owns delivery.
func (in *Injector) holdLocked(src packet.NodeID, f *packet.Frame) *packet.Frame {
	var displaced *packet.Frame
	if prev := in.held[src]; prev != nil {
		if prev.timer.Stop() {
			in.wg.Done()
			displaced = prev.f
			delete(in.held, src)
		}
	}
	hf := &heldFrame{f: f}
	in.held[src] = hf
	in.wg.Add(1)
	hf.timer = time.AfterFunc(5*time.Millisecond, func() {
		defer in.wg.Done()
		in.mu.Lock()
		if in.held[src] != hf || in.closed {
			in.mu.Unlock()
			// A successful Stop elsewhere means this callback never runs,
			// so reaching here makes this timer the frame's last owner:
			// displaced-while-mid-flight or closed, nobody else will
			// deliver or recycle it.
			if hf.f.Backed() {
				packet.ReleaseFrame(hf.f)
			}
			return
		}
		delete(in.held, src)
		h := in.onRecv
		in.mu.Unlock()
		if h != nil {
			h(src, f)
		}
	})
	return displaced
}

// takeHeldLocked removes and returns the source's reorder slot occupant,
// if any — the frame the current arrival is overtaking.
func (in *Injector) takeHeldLocked(src packet.NodeID) *packet.Frame {
	hf := in.held[src]
	if hf == nil {
		return nil
	}
	if !hf.timer.Stop() {
		// The fallback timer already fired (or is mid-flight); it owns
		// delivery.
		return nil
	}
	in.wg.Done() // the stopped timer will never run
	delete(in.held, src)
	return hf.f
}

// Close releases held frames (delivering them — close is not a fault) and
// closes the wrapped driver.
func (in *Injector) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	var flush []*heldFrame
	var srcs []packet.NodeID
	for src, hf := range in.held {
		if hf.timer.Stop() {
			in.wg.Done()
			flush = append(flush, hf)
			srcs = append(srcs, src)
		}
	}
	in.held = make(map[packet.NodeID]*heldFrame)
	h := in.onRecv
	in.mu.Unlock()
	for i, hf := range flush {
		if h != nil {
			h(srcs[i], hf.f)
		}
	}
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	in.wg.Wait()
	return in.inner.Close()
}

// --- pass-through Driver surface -----------------------------------------

// Name identifies the injected rail.
func (in *Injector) Name() string { return "chaos:" + in.inner.Name() }

// Node returns the wrapped driver's node id.
func (in *Injector) Node() packet.NodeID { return in.inner.Node() }

// Caps returns the wrapped driver's capability record.
func (in *Injector) Caps() caps.Caps { return in.inner.Caps() }

// Mem returns the wrapped driver's memory model.
func (in *Injector) Mem() memsim.Model { return in.inner.Mem() }

// NumChannels returns the wrapped driver's send-unit count.
func (in *Injector) NumChannels() int { return in.inner.NumChannels() }

// ChannelIdle delegates to the wrapped driver.
func (in *Injector) ChannelIdle(ch int) bool { return in.inner.ChannelIdle(ch) }

// FirstIdle delegates to the wrapped driver.
func (in *Injector) FirstIdle() (int, bool) { return in.inner.FirstIdle() }

// Post delegates to the wrapped driver (faults apply on the receive side).
func (in *Injector) Post(ch int, f *packet.Frame, hostExtra simnet.Duration) error {
	return in.inner.Post(ch, f, hostExtra)
}

// SetIdleHandler delegates to the wrapped driver.
func (in *Injector) SetIdleHandler(fn drivers.IdleFunc) { in.inner.SetIdleHandler(fn) }

// SetFrameLossHandler forwards to the wrapped driver when it reports frame
// loss (drivers.FrameLossNotifier); no-op otherwise.
func (in *Injector) SetFrameLossHandler(fn drivers.FrameLossHandler) {
	if ln, ok := in.inner.(drivers.FrameLossNotifier); ok {
		ln.SetFrameLossHandler(fn)
	}
}

// SetPeerDownHandler forwards to the wrapped driver when it reports peer
// failures (drivers.PeerDownNotifier); no-op otherwise.
func (in *Injector) SetPeerDownHandler(fn func(peer packet.NodeID)) {
	if dn, ok := in.inner.(drivers.PeerDownNotifier); ok {
		dn.SetPeerDownHandler(fn)
	}
}

// PeerDown reports the wrapped driver's peer liveness (drivers.PeerChecker);
// drivers without liveness tracking read as always up.
func (in *Injector) PeerDown(peer packet.NodeID) bool {
	if pc, ok := in.inner.(drivers.PeerChecker); ok {
		return pc.PeerDown(peer)
	}
	return false
}

var _ drivers.Driver = (*Injector)(nil)
var _ drivers.FrameLossNotifier = (*Injector)(nil)
var _ drivers.PeerDownNotifier = (*Injector)(nil)
var _ drivers.PeerChecker = (*Injector)(nil)
