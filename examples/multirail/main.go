// Multirail: load balancing over multiple NICs — first in virtual time,
// then over real sockets.
//
// Part 1 (simulated): one node owns both a Myrinet/MX NIC and a
// Quadrics/Elan NIC; an unbalanced multi-flow workload runs once with the
// static one-to-one flow mapping and once with the shared pool, showing how
// the pooled scheduler keeps both rails busy.
//
// Part 2 (real sockets): two nodes connected by N independent TCP rails —
// one genuine connection per rail per peer, each enforcing a GigE-class
// bandwidth from its capability record — run a conglomerate workload
// (small streams + rendezvous bulks) on 1 rail and on 2 rails. The
// capability-aware rail scheduler stripes the bulk transfers, so the
// 2-rail node roughly doubles deliverable bandwidth.
//
//	go run ./examples/multirail            # both parts
//	go run ./examples/multirail -sim-only  # skip the real-socket part
package main

import (
	"flag"
	"fmt"
	"log"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/exp"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

func run(rail strategy.RailPolicy) (end simnet.Time, mxFrames, elanFrames uint64) {
	mx := caps.MX
	mx.Channels = 1
	elan := caps.Elan
	elan.Channels = 1

	cluster, err := drivers.NewCluster(2, mx, elan)
	if err != nil {
		log.Fatal(err)
	}
	engines := map[packet.NodeID]*core.Engine{}
	for n := packet.NodeID(0); n < 2; n++ {
		bundle, err := strategy.New("aggregate")
		if err != nil {
			log.Fatal(err)
		}
		bundle.Rail = rail
		var rails []drivers.Driver
		for _, d := range cluster.NodeDrivers(n) {
			rails = append(rails, d)
		}
		eng, err := core.New(n, core.Options{
			Bundle:  bundle,
			Runtime: cluster.Eng,
			Rails:   rails,
			Deliver: func(proto.Deliverable) {},
			Stats:   cluster.Stats,
		})
		if err != nil {
			log.Fatal(err)
		}
		engines[n] = eng
	}
	wl := workload.NewDriver(cluster.Eng, engines, 1)
	for f := 0; f < 8; f++ {
		size := 256
		if f%2 == 1 {
			size = 4096 // heavy flows — static pinning strands these
		}
		wl.Add(workload.FlowSpec{
			Flow: packet.FlowID(f + 1), Src: 0, Dst: 1,
			Class:   packet.ClassSmall,
			Size:    workload.Fixed(size),
			Arrival: workload.BackToBack{},
			Count:   32,
		})
	}
	end = cluster.Eng.Run()
	// Per-rail frame counts, summed over both engines; rails are indexed
	// like Engine.Rails().
	for _, eng := range engines {
		m := eng.Metrics()
		for i, r := range eng.Rails() {
			switch r.Caps().Name {
			case "mx":
				mxFrames += m.RailFrames[i]
			case "elan":
				elanFrames += m.RailFrames[i]
			}
		}
	}
	return end, mxFrames, elanFrames
}

func realSockets() {
	fmt.Println("— part 2: real sockets —")
	fmt.Println("two nodes, N independent TCP rails per peer (one connection each),")
	fmt.Println("each rail pacing to its capability record's bandwidth class;")
	fmt.Println("conglomerate workload: small streams + rendezvous bulks, both directions")
	fmt.Println()
	cfg := exp.Config{Quick: true, Seed: 1}
	one, err := exp.X4Mesh(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	two, err := exp.X4Mesh(cfg, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1 rail:  %6.1f ms  %6.1f MB/s   frames %v\n",
		one.Completion.Seconds()*1e3, one.Goodput()/1e6, one.RailFrames)
	fmt.Printf("2 rails: %6.1f ms  %6.1f MB/s   frames %v\n",
		two.Completion.Seconds()*1e3, two.Goodput()/1e6, two.RailFrames)
	fmt.Printf("\nstriping the bulk transfers across both wires finishes %.2fx sooner —\n",
		float64(one.Completion)/float64(two.Completion))
	fmt.Println("the same scheduling decision as part 1, now over genuine TCP connections.")
}

func main() {
	simOnly := flag.Bool("sim-only", false, "skip the real-socket part")
	flag.Parse()

	fmt.Println("— part 1: virtual time —")
	fmt.Println("one node, two rails: Myrinet/MX (250 MB/s) + Quadrics/Elan (900 MB/s)")
	fmt.Println("workload: 8 flows, odd flows carry 16x the bytes of even flows")
	fmt.Println()

	end, mx, elan := run(strategy.PinnedRail{})
	fmt.Printf("pinned (one-to-one mapping):  done at %-12v frames mx=%d elan=%d\n", end, mx, elan)

	end2, mx2, elan2 := run(strategy.SharedRail{})
	fmt.Printf("shared (pooled scheduler):    done at %-12v frames mx=%d elan=%d\n", end2, mx2, elan2)

	fmt.Printf("\npooling the multiplexing units finishes %.2fx sooner:\n",
		float64(end)/float64(end2))
	fmt.Println("whichever NIC goes idle pulls the next eligible packets, so the fast")
	fmt.Println("rail is never stranded behind a static flow assignment (§2 of the paper).")
	fmt.Println()

	if !*simOnly {
		realSockets()
	}
}
