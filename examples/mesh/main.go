// Mesh: four optimizer engines over real TCP sockets running an all-to-all
// structured-message workload — the multi-node wall-clock counterpart of
// examples/quickstart.
//
// Each node is a full Figure-1 stack (mad packing session, optimizing
// engine, mesh TCP driver); every ordered pair of nodes exchanges messages
// concurrently, so idle and receive upcalls race exactly as they would on a
// real deployment.
//
//	go run ./examples/mesh
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"newmad/internal/cluster"
	"newmad/internal/mad"
	"newmad/internal/packet"
)

func main() {
	const (
		nodes   = 4
		perPair = 25 // messages per ordered (src, dst) pair
	)
	total := nodes * (nodes - 1) * perPair

	c, err := cluster.New(cluster.Options{Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Every node counts the messages it receives on the shared channel.
	var received atomic.Int64
	done := make(chan struct{}, 1)
	for n := packet.NodeID(0); n < nodes; n++ {
		c.Session(n).Channel("a2a").OnMessage(func(src packet.NodeID, m *mad.Incoming) {
			if received.Add(1) == int64(total) {
				done <- struct{}{}
			}
		})
	}

	// All-to-all: one goroutine per sender node, packing messages to every
	// peer round-robin. Submit returns immediately; the engines overlap
	// packing, optimization and transmission across the whole mesh.
	start := time.Now()
	for n := packet.NodeID(0); n < nodes; n++ {
		n := n
		go func() {
			conns := make([]*mad.Connection, 0, nodes-1)
			for p := packet.NodeID(0); p < nodes; p++ {
				if p != n {
					conns = append(conns, c.Session(n).Channel("a2a").Connect(p))
				}
			}
			for i := 0; i < perPair; i++ {
				for _, conn := range conns {
					msg := conn.BeginPacking()
					msg.Pack([]byte(fmt.Sprintf("hdr n%d#%d", n, i)), mad.SendCheaper, mad.RecvExpress)
					msg.Pack(make([]byte, 1024), mad.SendCheaper, mad.RecvCheaper)
					msg.EndPacking()
				}
			}
			c.Engine(n).Flush()
		}()
	}

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		log.Fatalf("mesh exchange incomplete: %d of %d messages", received.Load(), total)
	}
	wall := time.Since(start)

	fmt.Printf("4-node all-to-all over real TCP sockets: %d messages in %v\n",
		total, wall.Round(time.Millisecond))
	// The exchange is symmetric, so every node delivers exactly as many
	// packets as it submitted; anything else is a lost or duplicated packet.
	lost := false
	for n := packet.NodeID(0); n < nodes; n++ {
		m := c.Engine(n).Metrics()
		fmt.Printf("  node %d: submitted=%d frames=%d aggregates=%d delivered=%d\n",
			n, m.Submitted, m.FramesPosted, m.Aggregates, m.Delivered)
		lost = lost || m.Delivered != m.Submitted
	}
	if lost {
		log.Fatal("mesh: a node delivered a different packet count than it submitted")
	}
}
