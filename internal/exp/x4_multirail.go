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
	"newmad/internal/strategy"
)

// X4 — multi-rail addendum (not a claim of the paper; added with the
// multi-rail TCP mesh transport).
//
// E4 shows the scheduler's dynamic load balancing "on multiple NICs, or
// even NICs from multiple technologies" on simulated fabrics. X4 runs the
// same idea over real sockets: every node carries N independent TCP rails
// per peer (one connection each, one capability record each), and the
// capability-aware rail scheduler (strategy.ScheduledRail) stripes granted
// rendezvous transfers across the rails while steering small eager
// aggregates to the low-latency rail. The rails enforce their capability
// record's bandwidth class on the wall clock (caps.EmulateWire), so each
// TCP rail faithfully stands in for one GigE-class NIC regardless of host
// core count or loopback speed. The workload is a conglomerate —
// concurrent small-message streams and large rendezvous transfers in both
// directions — and the measured quantity is wall-clock completion: the
// deliverable bandwidth of a multi-rail node is the sum of its rails, but
// only if the scheduler actually keeps every rail busy. A single rail
// bounds throughput at one wire; striping across N rails multiplies it,
// which is exactly what the table shows (and what would fail to show if
// striping pinned traffic to one rail).

func init() {
	register(Experiment{
		ID:    "X4",
		Title: "multi-rail addendum: capability-aware rail striping over real TCP sockets",
		Claim: "reproduction brief: striping bulk transfers across N real TCP rails beats a single rail on wall-clock conglomerate throughput (not in the paper)",
		Run:   runX4,
	})
}

// X4Result is one transport configuration's outcome for the shared
// conglomerate workload.
type X4Result struct {
	RailCount int
	Msgs      int
	Bytes     int
	// Completion is wall-clock time from first submit to last delivery.
	Completion time.Duration
	// RailFrames counts frames posted per rail profile, summed over nodes —
	// the striping evidence.
	RailFrames map[string]uint64
}

// Goodput returns application bytes per second over the run.
func (r X4Result) Goodput() float64 {
	s := r.Completion.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Bytes) / s
}

func x4Shape(cfg Config) (smallMsgs, smallSize, bulkMsgs, bulkSize int) {
	if cfg.Quick {
		return 200, 256, 16, 1 << 20
	}
	return 600, 256, 32, 2 << 20
}

// x4Rails derives the transport profiles: GigE-class TCP rails that enforce
// their bandwidth on the wall clock. 60 MB/s per rail keeps even the
// 4-rail, both-directions aggregate (480 MB/s) under what one host core
// can move through loopback sockets, so the comparison measures the rail
// scheduler, not the machine.
func x4Rails(n int) []caps.Caps {
	base := caps.TCP
	base.Name = "gige"
	base.Bandwidth = 60e6
	base.EmulateWire = true
	return caps.RailProfiles(base, n)
}

// X4Mesh runs the conglomerate workload between two nodes connected by
// railCount real TCP rails and reports wall-clock completion.
func X4Mesh(cfg Config, railCount int) (X4Result, error) {
	smallMsgs, smallSize, bulkMsgs, bulkSize := x4Shape(cfg)
	// Both directions: each node sends the full mix.
	total := 2 * (smallMsgs + bulkMsgs)

	var delivered atomic.Int64
	done := make(chan struct{}, 1)
	opts := cluster.Options{
		Nodes: 2,
		Rails: x4Rails(railCount),
		Raw:   true,
		OnDeliver: func(packet.NodeID, proto.Deliverable) {
			if delivered.Add(1) == int64(total) {
				done <- struct{}{}
			}
		},
	}
	opts.RailPolicy = strategy.NewScheduledRail(opts.RailCaps())
	c, err := cluster.New(opts)
	if err != nil {
		return X4Result{}, err
	}
	defer c.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for s := 0; s < 2; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := c.Engine(packet.NodeID(s))
			dst := packet.NodeID(1 - s)
			smallFlow := packet.FlowID(10 + s)
			bulkFlow := packet.FlowID(20 + s)
			// Interleave: a few small messages between each bulk submission,
			// so the engine always sees the conglomerate, not two phases.
			si, bi := 0, 0
			for si < smallMsgs || bi < bulkMsgs {
				for k := 0; k < smallMsgs/max(bulkMsgs, 1)+1 && si < smallMsgs; k++ {
					p := &packet.Packet{
						Flow: smallFlow, Msg: packet.MsgID(si + 1), Seq: si, Last: true,
						Src: packet.NodeID(s), Dst: dst,
						Class: packet.ClassSmall, Payload: make([]byte, smallSize),
					}
					if err := eng.Submit(p); err != nil {
						errs <- err
						return
					}
					si++
				}
				if bi < bulkMsgs {
					p := &packet.Packet{
						Flow: bulkFlow, Msg: packet.MsgID(bi + 1), Seq: bi, Last: true,
						Src: packet.NodeID(s), Dst: dst,
						Class: packet.ClassSmall, Payload: make([]byte, bulkSize),
					}
					if err := eng.Submit(p); err != nil {
						errs <- err
						return
					}
					bi++
				}
			}
			eng.Flush()
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return X4Result{}, err
	default:
	}
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		return X4Result{}, fmt.Errorf("exp: X4 incomplete on %d rails, %d of %d delivered", railCount, delivered.Load(), total)
	}
	wall := time.Since(start)

	return X4Result{
		RailCount:  railCount,
		Msgs:       total,
		Bytes:      2 * (smallMsgs*smallSize + bulkMsgs*bulkSize),
		Completion: wall,
		RailFrames: railFrames(clusterEngines(c)),
	}, nil
}

func runX4(cfg Config) []*stats.Table {
	railCounts := []int{1, 2, 4}
	if cfg.Quick {
		railCounts = []int{1, 2}
	}
	results := make([]X4Result, 0, len(railCounts))
	for _, rc := range railCounts {
		r, err := X4Mesh(cfg, rc)
		if err != nil {
			panic(err)
		}
		results = append(results, r)
	}
	base := results[0]
	t := stats.NewTable(
		"X4 — conglomerate workload (small streams + rendezvous bulks, both directions) over N real TCP rails",
		"rails", "msgs", "MB", "time(ms)", "goodput(MB/s)", "speedup vs 1 rail", "frames per rail")
	t.Caption = "each rail is an independent TCP connection per peer enforcing its capability record's 60 MB/s bandwidth class; bulk transfers stripe across rails, small aggregates stay on the low-latency rail"
	for _, r := range results {
		dist := ""
		for _, p := range x4Rails(r.RailCount) {
			if dist != "" {
				dist += " "
			}
			dist += fmt.Sprintf("%d", r.RailFrames[p.Name])
		}
		t.AddRow(
			fmt.Sprintf("%d", r.RailCount),
			fmt.Sprintf("%d", r.Msgs),
			stats.FormatFloat(float64(r.Bytes)/1e6),
			stats.FormatFloat(r.Completion.Seconds()*1e3),
			stats.FormatFloat(r.Goodput()/1e6),
			fmt.Sprintf("%.2fx", float64(base.Completion)/float64(r.Completion)),
			dist,
		)
	}
	return []*stats.Table{t}
}
