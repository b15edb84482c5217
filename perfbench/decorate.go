package main

import (
	"errors"
	"sync"
	"sync/atomic"

	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// layerCounts are the per-layer counts the decorators keep next to the
// spans, so ratios are measured where the work happens.
type layerCounts struct {
	// drivers
	posts        atomic.Int64 // accepted Posts
	wireBytes    atomic.Int64 // WireSize of accepted frames
	busyRefusals atomic.Int64 // Posts refused with ErrChannelBusy, window or not
	postErrors   atomic.Int64 // other Post failures, window or not

	// strategy
	builds     atomic.Int64
	nilPlans   atomic.Int64
	backlogSum atomic.Int64 // len(ctx.Backlog) summed over Builds

	// core, sampled by the generator after each submit
	backlogPeak atomic.Int64

	mu    sync.Mutex
	holds []float64 // channel hold times (Post → that channel's idle upcall), µs
	// shapes are the frame layouts sampled at Post for the codec replay.
	shapes []frameShape
}

func (c *layerCounts) notePeak(n int) {
	for {
		cur := c.backlogPeak.Load()
		if int64(n) <= cur || c.backlogPeak.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Codec sampling: one frame in shapeEvery is recorded, up to maxShapes.
const (
	shapeEvery = 8
	maxShapes  = 4096
)

// tracedRail decorates one mesh rail. Every method it does not override —
// including FrameLossNotifier, PeerDownNotifier and PeerChecker, which the
// engine discovers by type assertion — is the mesh's own, promoted through
// the embedded pointer, so the engine drives the decorated rail exactly as
// it drives the bare one.
type tracedRail struct {
	*drivers.Mesh
	tr *tracer
	lc *layerCounts

	// postedAt holds, per send channel, the Post times (tracer clock) of
	// frames whose idle upcall has not fired yet. A channel carries one
	// frame at a time, but the next Post can land between the owner
	// freeing the channel and its idle upcall, so the times queue.
	holdMu   sync.Mutex
	postedAt [][]int64
	sampleN  atomic.Int64
}

var (
	_ drivers.Driver            = (*tracedRail)(nil)
	_ drivers.FrameLossNotifier = (*tracedRail)(nil)
	_ drivers.PeerDownNotifier  = (*tracedRail)(nil)
	_ drivers.PeerChecker       = (*tracedRail)(nil)
)

func newTracedRail(m *drivers.Mesh, tr *tracer, lc *layerCounts) *tracedRail {
	return &tracedRail{Mesh: m, tr: tr, lc: lc, postedAt: make([][]int64, m.NumChannels())}
}

// Post times the mesh's Post. Everything read from the frame (its wire
// size, and its entries when the shape is sampled) is read before the
// call: once posted, the rail owner may encode, write and release the
// frame at any moment (the single-owner rule). Hold times are tracked
// outside the measurement window too, so the first idle upcall in the
// window pairs with its own Post.
func (r *tracedRail) Post(ch int, f *packet.Frame, extra simnet.Duration) error {
	on := r.tr.on.Load()
	wire := f.WireSize()
	var shape frameShape
	sampled := on && r.sampleN.Add(1)%shapeEvery == 0
	if sampled {
		shape = shapeOf(f)
	}
	validCh := ch >= 0 && ch < len(r.postedAt)
	if validCh {
		r.holdMu.Lock()
		r.postedAt[ch] = append(r.postedAt[ch], r.tr.now())
		r.holdMu.Unlock()
	}
	g := r.tr.begin(spPost)
	err := r.Mesh.Post(ch, f, extra)
	r.tr.end(g)
	if err != nil {
		if validCh {
			// Posts on one channel are serialized by the engine and a
			// refused frame gets no idle upcall, so the newest time is ours.
			r.holdMu.Lock()
			q := r.postedAt[ch]
			r.postedAt[ch] = q[:len(q)-1]
			r.holdMu.Unlock()
		}
		if errors.Is(err, drivers.ErrChannelBusy) {
			r.lc.busyRefusals.Add(1)
		} else {
			r.lc.postErrors.Add(1)
		}
		return err
	}
	if !on {
		return nil
	}
	r.lc.posts.Add(1)
	r.lc.wireBytes.Add(int64(wire))
	if sampled {
		r.lc.mu.Lock()
		if len(r.lc.shapes) < maxShapes {
			r.lc.shapes = append(r.lc.shapes, shape)
		}
		r.lc.mu.Unlock()
	}
	return nil
}

// SetIdleHandler wraps the engine's idle upcall: the channel's hold time
// ends here, and the upcall is the NIC-idle activation span.
func (r *tracedRail) SetIdleHandler(fn drivers.IdleFunc) {
	if fn == nil {
		r.Mesh.SetIdleHandler(nil)
		return
	}
	r.Mesh.SetIdleHandler(func(ch int) {
		r.closeHold(ch)
		g := r.tr.begin(spActivation)
		fn(ch)
		r.tr.end(g)
	})
}

func (r *tracedRail) closeHold(ch int) {
	if ch < 0 || ch >= len(r.postedAt) {
		return
	}
	now := r.tr.now()
	r.holdMu.Lock()
	q := r.postedAt[ch]
	if len(q) == 0 {
		r.holdMu.Unlock()
		return
	}
	t0 := q[0]
	r.postedAt[ch] = append(q[:0], q[1:]...)
	r.holdMu.Unlock()
	if r.tr.on.Load() {
		r.lc.mu.Lock()
		r.lc.holds = append(r.lc.holds, float64(now-t0)/1e3)
		r.lc.mu.Unlock()
	}
}

// SetRecvHandler wraps the engine's receive upcall: one span per inbound
// frame, around protocol dispatch, reassembly and delivery.
func (r *tracedRail) SetRecvHandler(fn drivers.RecvFunc) {
	if fn == nil {
		r.Mesh.SetRecvHandler(nil)
		return
	}
	r.Mesh.SetRecvHandler(func(src packet.NodeID, f *packet.Frame) {
		g := r.tr.begin(spRecv)
		fn(src, f)
		r.tr.end(g)
	})
}

// tracedBuilder wraps a bundle's plan builder with a span per Build and
// the builder's work counts.
type tracedBuilder struct {
	inner strategy.PlanBuilder
	tr    *tracer
	lc    *layerCounts
}

func (b *tracedBuilder) Name() string { return b.inner.Name() }

func (b *tracedBuilder) Build(ctx *strategy.Context) *strategy.Plan {
	g := b.tr.begin(spBuild)
	p := b.inner.Build(ctx)
	b.tr.end(g)
	if g != nil {
		b.lc.builds.Add(1)
		b.lc.backlogSum.Add(int64(len(ctx.Backlog)))
		if p == nil || len(p.Packets) == 0 {
			b.lc.nilPlans.Add(1)
		}
	}
	return p
}
