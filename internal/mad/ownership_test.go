package mad

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// body is the deterministic payload of message i on (src, channel):
// varying lengths, every byte a function of its position, so a fragment
// whose pooled packet was recycled under it arrives detectably wrong.
func body(src, ch, i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(src*31 + ch*7 + i*13 + j)
	}
	return b
}

func header(i int) []byte { return []byte(fmt.Sprintf("hdr-%06d", i)) }

// TestPooledPacketsOverShardedMesh drives the pooled-packet lifecycle
// across real sockets and concurrent shards (run it with -race): node 0
// sends many small two-fragment messages on four channels to each of two
// peers — so both of its pump shards acquire, submit and release pooled
// packets concurrently — interleaved with 256 KiB messages whose body
// travels by rendezvous (its packet is kept by the protocol engine, never
// released). Every fragment is checked byte for byte, in order.
func TestPooledPacketsOverShardedMesh(t *testing.T) {
	const (
		nodes    = 3
		channels = 4
		perChan  = 150
		bulkMsgs = 3
		bulkSize = 256 << 10
	)
	mesh, cleanup, err := drivers.NewMeshCluster(nodes, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	rt := simnet.NewRealRuntime()
	sessions := make([]*Session, nodes)
	for i := range sessions {
		node := packet.NodeID(i)
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		s, err := Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			return core.New(node, core.Options{
				Bundle:  b,
				Runtime: rt,
				Rails:   []drivers.Driver{mesh[node]},
				Deliver: deliver,
				Shards:  2,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Engine().Close()
		sessions[i] = s
	}
	if sessions[0].Engine().Shards() != 2 {
		t.Fatalf("sender runs %d shards, want 2", sessions[0].Engine().Shards())
	}

	bulkBody := func(dst, i int) []byte { return body(dst, 99, i, bulkSize) }
	want := 2 * (channels*perChan + bulkMsgs)
	var (
		mu       sync.Mutex
		errs     []string
		received int
		done     = make(chan struct{})
	)
	note := func(bad string) {
		mu.Lock()
		defer mu.Unlock()
		if bad != "" && len(errs) < 10 {
			errs = append(errs, bad)
		}
		received++
		if received == want {
			close(done)
		}
	}
	// Channels are created in the same order on every node.
	for dst := 1; dst < nodes; dst++ {
		dst := dst
		for ch := 0; ch < channels; ch++ {
			ch := ch
			next := 0 // message index expected next; handler runs in order per flow
			sessions[dst].Channel(fmt.Sprintf("c%d", ch)).OnMessage(func(src packet.NodeID, m *Incoming) {
				i := next
				next++
				bad := ""
				switch {
				case src != 0 || len(m.Fragments) != 2:
					bad = fmt.Sprintf("n%d c%d msg %d: src %d, %d fragments", dst, ch, i, src, len(m.Fragments))
				case !bytes.Equal(m.Fragments[0], header(i)) || !m.Express[0] || m.Express[1]:
					bad = fmt.Sprintf("n%d c%d msg %d: header %q express %v", dst, ch, i, m.Fragments[0], m.Express)
				case !bytes.Equal(m.Fragments[1], body(dst, ch, i, 1+(i*37)%200)):
					bad = fmt.Sprintf("n%d c%d msg %d: body corrupted", dst, ch, i)
				}
				note(bad)
			})
		}
		next := 0
		sessions[dst].Channel("bulk").OnMessage(func(src packet.NodeID, m *Incoming) {
			i := next
			next++
			bad := ""
			if len(m.Fragments) != 2 || !bytes.Equal(m.Fragments[0], header(i)) || !bytes.Equal(m.Fragments[1], bulkBody(dst, i)) {
				bad = fmt.Sprintf("n%d bulk msg %d corrupted", dst, i)
			}
			note(bad)
		})
	}

	var wg sync.WaitGroup
	for dst := 1; dst < nodes; dst++ {
		for ch := 0; ch < channels; ch++ {
			conn := sessions[0].Channel(fmt.Sprintf("c%d", ch)).Connect(packet.NodeID(dst))
			wg.Add(1)
			go func(dst, ch int) {
				defer wg.Done()
				for i := 0; i < perChan; i++ {
					m := conn.BeginPacking()
					m.Pack(header(i), SendCheaper, RecvExpress)
					m.Pack(body(dst, ch, i, 1+(i*37)%200), SendCheaper, RecvCheaper)
					m.EndPacking()
				}
			}(dst, ch)
		}
		conn := sessions[0].Channel("bulk").Connect(packet.NodeID(dst))
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			for i := 0; i < bulkMsgs; i++ {
				time.Sleep(time.Millisecond) // land among the small messages
				m := conn.BeginPacking()
				m.Pack(header(i), SendCheaper, RecvExpress)
				m.Pack(bulkBody(dst, i), SendCheaper, RecvCheaper)
				m.EndPacking()
			}
		}(dst)
	}
	wg.Wait()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("received %d of %d messages", received, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) > 0 {
		t.Fatalf("corrupted deliveries:\n%v", errs)
	}
	if n := sessions[0].Engine().Metrics().RdvBytes; n < 2*bulkMsgs*bulkSize {
		t.Fatalf("rendezvous carried %d bytes, want the %d bulk bytes", n, 2*bulkMsgs*bulkSize)
	}
}
