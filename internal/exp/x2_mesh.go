package exp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newmad/internal/caps"
	"newmad/internal/cluster"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/stats"
)

// X2 — mesh addendum (not a claim of the paper; added with the multi-node
// TCP mesh transport).
//
// The reproduction's other experiments run the optimizer against simulated
// NICs in virtual time. X2 runs the *same engine and the same all-to-all
// workload* twice: once on the simulated TCP fabric (the virtual-time
// prediction) and once over real mesh sockets between N full Figure-1
// stacks (the wall-clock measurement). The transaction accounting — how
// many frames the optimizer posts for the workload — is the quantity the
// model is supposed to predict; completion time differs by construction,
// since the simulated profile models a 2006 gigabit stack while the real
// mesh runs over the host's loopback device.

func init() {
	register(Experiment{
		ID:    "X2",
		Title: "mesh addendum: real TCP mesh sockets vs the virtual-time model",
		Claim: "reproduction brief: the optimizer's transaction accounting carries over from the simulated fabric to a real N-node transport (not in the paper)",
		Run:   runX2,
	})
}

// X2Result is one substrate's outcome for the shared workload.
type X2Result struct {
	Nodes int
	Msgs  int
	Bytes int
	// Frames is the total number of frames the optimizers posted.
	Frames uint64
	// Completion is virtual time for the simulated run, wall-clock time for
	// the mesh run.
	Completion time.Duration
}

// x2Workload enumerates the all-to-all raw-packet workload: every ordered
// (src, dst) pair carries one flow of perFlow packets.
func x2Shape(cfg Config) (nodes, perFlow, size int) {
	if cfg.Quick {
		return 3, 30, 512
	}
	return 4, 200, 512
}

func x2Flow(nodes int, src, dst packet.NodeID) packet.FlowID {
	return packet.FlowID(uint32(src)*uint32(nodes) + uint32(dst) + 1)
}

func x2Packet(nodes, seq, size int, src, dst packet.NodeID) *packet.Packet {
	return &packet.Packet{
		Flow: x2Flow(nodes, src, dst), Msg: 1, Seq: seq,
		Src: src, Dst: dst,
		Class: packet.ClassSmall, Payload: make([]byte, size),
	}
}

// X2Sim runs the workload on the simulated TCP fabric and reports the
// virtual-time prediction.
func X2Sim(cfg Config) (X2Result, error) {
	nodes, perFlow, size := x2Shape(cfg)
	rig, err := NewRig(RigOptions{ID: "X2", Nodes: nodes, Profiles: []caps.Caps{caps.TCP}})
	if err != nil {
		return X2Result{}, err
	}
	total := 0
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			for q := 0; q < perFlow; q++ {
				p := x2Packet(nodes, q, size, packet.NodeID(s), packet.NodeID(d))
				if err := rig.Engines[packet.NodeID(s)].Submit(p); err != nil {
					return X2Result{}, err
				}
				total++
			}
		}
	}
	m, err := rig.Run(total)
	if err != nil {
		return X2Result{}, err
	}
	return X2Result{
		Nodes:      nodes,
		Msgs:       total,
		Bytes:      total * size,
		Frames:     sumMetrics(rig.engines()).FramesPosted,
		Completion: time.Duration(m.End),
	}, nil
}

// X2Mesh runs the workload over real TCP mesh sockets and reports the
// wall-clock measurement.
func X2Mesh(cfg Config) (X2Result, error) {
	nodes, perFlow, size := x2Shape(cfg)
	total := nodes * (nodes - 1) * perFlow

	var delivered atomic.Int64
	done := make(chan struct{}, 1)
	c, err := cluster.New(cluster.Options{
		Nodes: nodes,
		Raw:   true,
		OnDeliver: func(packet.NodeID, proto.Deliverable) {
			if delivered.Add(1) == int64(total) {
				done <- struct{}{}
			}
		},
	})
	if err != nil {
		return X2Result{}, err
	}
	defer c.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for s := 0; s < nodes; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := c.Engine(packet.NodeID(s))
			for q := 0; q < perFlow; q++ {
				for d := 0; d < nodes; d++ {
					if s == d {
						continue
					}
					p := x2Packet(nodes, q, size, packet.NodeID(s), packet.NodeID(d))
					if err := eng.Submit(p); err != nil {
						errs <- err
						return
					}
				}
			}
			eng.Flush()
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return X2Result{}, err
	default:
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return X2Result{}, fmt.Errorf("exp: mesh run incomplete, %d of %d delivered", delivered.Load(), total)
	}
	wall := time.Since(start)

	return X2Result{
		Nodes:      nodes,
		Msgs:       total,
		Bytes:      total * size,
		Frames:     sumMetrics(clusterEngines(c)).FramesPosted,
		Completion: wall,
	}, nil
}

func runX2(cfg Config) []*stats.Table {
	sim, err := X2Sim(cfg)
	if err != nil {
		panic(err)
	}
	mesh, err := X2Mesh(cfg)
	if err != nil {
		panic(err)
	}
	t := stats.NewTable(
		fmt.Sprintf("X2 — all-to-all on %d nodes, 512 B messages: simulated TCP vs real mesh sockets", sim.Nodes),
		"substrate", "time base", "msgs", "frames", "pkts/frame", "time(ms)", "goodput(MB/s)")
	t.Caption = "frames measure the optimizer's transaction accounting; sim time models a 2006 gigabit stack, mesh time is the host's loopback"
	add := func(name, base string, r X2Result) {
		secs := r.Completion.Seconds()
		t.AddRow(
			name, base,
			fmt.Sprintf("%d", r.Msgs),
			fmt.Sprintf("%d", r.Frames),
			stats.FormatFloat(float64(r.Msgs)/float64(r.Frames)),
			stats.FormatFloat(secs*1e3),
			stats.FormatFloat(float64(r.Bytes)/secs/1e6),
		)
	}
	add("sim-tcp", "virtual", sim)
	add("mesh-tcp", "wall", mesh)
	return []*stats.Table{t}
}
