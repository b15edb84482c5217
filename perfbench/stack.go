package main

import (
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/cluster"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
)

// stack is the 2-node system under test: one session and engine per node,
// over one TCP connection per direction on the host's loopback.
type stack struct {
	sessions [2]*mad.Session
	engines  [2]*core.Engine
	close    func()
}

// bootPlain boots the untraced stack exactly as a user would: through
// cluster.New with its defaults (the aggregate bundle, caps.TCP, no wire
// pacing, one shard per engine).
func bootPlain() (*stack, error) {
	c, err := cluster.New(cluster.Options{Nodes: 2, Caps: caps.TCP})
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	st := &stack{close: c.Close}
	for i := range st.sessions {
		st.sessions[i] = c.Session(packet.NodeID(i))
		st.engines[i] = c.Engine(packet.NodeID(i))
	}
	return st, nil
}

// bootTraced assembles the same stack as cluster.New does for bootPlain's
// options, with each layer's public boundary wrapped: every mesh rail in a
// tracedRail, the aggregate bundle's plan builder in a tracedBuilder, and
// the engine's Deliver upcall in a mad.deliver span. cluster.New offers no
// hook for decorating its drivers, hence the explicit assembly.
func bootTraced(tr *tracer, lc *layerCounts) (*stack, error) {
	meshes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		return nil, fmt.Errorf("boot mesh: %w", err)
	}
	rt := simnet.NewRealRuntime()
	st := &stack{}
	st.close = func() {
		for _, e := range st.engines {
			if e != nil {
				e.Close()
			}
		}
		cleanup()
	}
	for i, m := range meshes {
		node := packet.NodeID(i)
		b, err := strategy.New("aggregate")
		if err != nil {
			st.close()
			return nil, err
		}
		b.Builder = &tracedBuilder{inner: b.Builder, tr: tr, lc: lc}
		rail := newTracedRail(m, tr, lc)
		sess, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			return core.New(node, core.Options{
				Bundle:  b,
				Runtime: rt,
				Rails:   []drivers.Driver{rail},
				Deliver: func(d proto.Deliverable) {
					g := tr.begin(spDeliver)
					deliver(d)
					tr.end(g)
				},
				Stats: &stats.Set{},
			})
		})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("boot node %d: %w", i, err)
		}
		st.sessions[i] = sess
		st.engines[i] = sess.Engine()
	}
	return st, nil
}

// engineTotals sums the two engines' metric snapshots.
func (st *stack) engineTotals() core.Metrics {
	var sum core.Metrics
	for _, e := range st.engines {
		m := e.Metrics()
		sum.Submitted += m.Submitted
		sum.SubmittedBytes += m.SubmittedBytes
		sum.RdvBytes += m.RdvBytes
		sum.FramesPosted += m.FramesPosted
		sum.PacketsSent += m.PacketsSent
		sum.Delivered += m.Delivered
		sum.RdvRetries += m.RdvRetries
		sum.IdleUpcalls += m.IdleUpcalls
	}
	return sum
}

// queueWait returns the merged queue-wait histogram of both engines.
func (st *stack) queueWait() *stats.Histogram {
	h := &stats.Histogram{}
	for _, e := range st.engines {
		h.Merge(e.Spans().Total(int(core.SpanQueueWait)))
	}
	return h
}
