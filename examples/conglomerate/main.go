// Conglomerate: the paper's motivating scenario — an application built on
// a stack of middlewares. Four nodes run an MPI-style halo exchange, an
// RPC request storm, and DSM page churn at the same time, over the same
// optimizer engines. The run is repeated with the deterministic baseline
// and the cross-flow engine.
//
//	go run ./examples/conglomerate
package main

import (
	"fmt"
	"log"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/middleware/minidsm"
	"newmad/internal/middleware/minimpi"
	"newmad/internal/middleware/minirpc"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

const (
	nodes     = 4
	haloIters = 16
	rpcCalls  = 96
	dsmWrites = 32
)

func run(bundleName string) (end simnet.Time, frames, aggregates uint64) {
	profile := caps.MX
	profile.Channels = 1
	cluster, err := drivers.NewCluster(nodes, profile)
	if err != nil {
		log.Fatal(err)
	}

	sessions := make([]*mad.Session, nodes)
	for n := packet.NodeID(0); n < nodes; n++ {
		bundle, err := strategy.New(bundleName)
		if err != nil {
			log.Fatal(err)
		}
		s, err := mad.Bind(n, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			return core.New(n, core.Options{
				Bundle:  bundle,
				Runtime: cluster.Eng,
				Rails:   []drivers.Driver{cluster.Driver(n, "mx")},
				Deliver: deliver,
				Stats:   cluster.Stats,
			})
		})
		if err != nil {
			log.Fatal(err)
		}
		sessions[n] = s
	}

	// The middleware stack — same creation order everywhere.
	worlds := make([]*minimpi.World, nodes)
	rpcs := make([]*minirpc.Peer, nodes)
	dsms := make([]*minidsm.DSM, nodes)
	for n := 0; n < nodes; n++ {
		w, err := minimpi.New(sessions[n], nodes)
		if err != nil {
			log.Fatal(err)
		}
		worlds[n] = w
		rpcs[n] = minirpc.New(sessions[n])
		d, err := minidsm.New(sessions[n], nodes, 8, 4096)
		if err != nil {
			log.Fatal(err)
		}
		dsms[n] = d
	}

	// MPI: ring halo exchange + barrier, iterated.
	var iterate func(rank, iter int)
	iterate = func(rank, iter int) {
		if iter >= haloIters {
			return
		}
		w := worlds[rank]
		right, left := (rank+1)%nodes, (rank-1+nodes)%nodes
		got := 0
		both := func(int, int64, []byte) {
			got++
			if got == 2 {
				w.Barrier(func() { iterate(rank, iter+1) })
			}
		}
		w.Recv(left, int64(10+iter), both)
		w.Recv(right, int64(50+iter), both)
		if err := w.Send(right, int64(10+iter), make([]byte, 1024)); err != nil {
			log.Fatal(err)
		}
		if err := w.Send(left, int64(50+iter), make([]byte, 1024)); err != nil {
			log.Fatal(err)
		}
	}

	// RPC: nodes 2 and 3 call a service on node 1.
	rpcs[1].Register("transform", func(_ packet.NodeID, args []byte) []byte {
		return append(args, 1)
	})
	storm := func(client int) {
		var next func(i int)
		next = func(i int) {
			if i >= rpcCalls {
				return
			}
			rpcs[client].Call(1, "transform", []byte{byte(i)}, func([]byte, error) { next(i + 1) })
		}
		next(0)
	}

	// DSM: node 3 writes pages; nodes 0 and 2 read them back.
	var churn func(i int)
	churn = func(i int) {
		if i >= dsmWrites {
			return
		}
		page := i % 8
		err := dsms[3].Write(page, 0, []byte{byte(i)}, func() {
			_ = dsms[0].Read(page, func([]byte) {
				_ = dsms[2].Read(page, func([]byte) { churn(i + 1) })
			})
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	cluster.Eng.At(0, "start", func() {
		for r := 0; r < nodes; r++ {
			iterate(r, 0)
		}
		storm(2)
		storm(3)
		churn(0)
	})
	end = cluster.Eng.Run()
	for _, s := range sessions {
		aggregates += s.Engine().Metrics().Aggregates
	}
	return end, cluster.Stats.CounterValue("nic.tx.frames"), aggregates
}

func main() {
	fmt.Printf("conglomerate on %d nodes: %d halo iterations + 2×%d RPC calls + %d DSM writes\n\n",
		nodes, haloIters, rpcCalls, dsmWrites)

	fifoEnd, fifoFrames, _ := run("fifo")
	fmt.Printf("fifo (per-flow deterministic): done at %-12v %4d frames\n", fifoEnd, fifoFrames)

	aggEnd, aggFrames, aggs := run("aggregate")
	fmt.Printf("aggregate (cross-flow engine): done at %-12v %4d frames (%d aggregates)\n",
		aggEnd, aggFrames, aggs)

	fmt.Printf("\nmixing flows from three middlewares: %.2fx faster, %.1fx fewer transactions\n",
		float64(fifoEnd)/float64(aggEnd), float64(fifoFrames)/float64(aggFrames))
	fmt.Println("(no middleware changed a line of code — the gain is all in the scheduler)")
}
