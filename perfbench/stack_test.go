package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/packet"
)

// sendAndCollect sends n seed-generated messages over flows channels from
// node 0 to node 1 and returns what node 1 received, per flow in delivery
// order.
func sendAndCollect(t *testing.T, st *stack, n, flows int, seed uint64) [][][]byte {
	t.Helper()
	got := make([][][]byte, flows)
	var mu sync.Mutex
	done := make(chan struct{})
	received := 0
	conns := make([]*mad.Connection, flows)
	for f := 0; f < flows; f++ {
		name := fmt.Sprintf("c%d", f)
		conns[f] = st.sessions[0].Channel(name).Connect(1)
		f := f
		st.sessions[1].Channel(name).OnMessage(func(_ packet.NodeID, msg *mad.Incoming) {
			mu.Lock()
			defer mu.Unlock()
			got[f] = append(got[f], append([]byte(nil), msg.Fragments[0]...))
			if received++; received == n {
				close(done)
			}
		})
	}
	r := rng{seed}
	seqs := make([]uint64, flows)
	for i := 0; i < n; i++ {
		f := r.intn(flows)
		b := make([]byte, msgSize)
		putMsg(b, seed, uint32(f), seqs[f], 0)
		seqs[f]++
		m := conns[f].BeginPacking()
		m.Pack(b, mad.SendCheaper, mad.RecvCheaper)
		m.EndPacking()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("received %d of %d messages", received, n)
	}
	return got
}

// The decorated stack must behave like the plain one: same messages, same
// per-flow order, same bytes; and the decorator must see every frame the
// engines post.
func TestTracedStackDeliversSameMessages(t *testing.T) {
	const n, flows, seed = 4000, 4, 11
	plain, err := bootPlain()
	if err != nil {
		t.Fatal(err)
	}
	want := sendAndCollect(t, plain, n, flows, seed)
	plain.close()

	tr, lc := newTracer(0), &layerCounts{}
	tr.on.Store(true)
	traced, err := bootTraced(tr, lc)
	if err != nil {
		t.Fatal(err)
	}
	got := sendAndCollect(t, traced, n, flows, seed)
	// Close waits for the rails' goroutines, so a Post that returned after
	// the last delivery has been counted on both sides.
	traced.close()
	frames := traced.engineTotals().FramesPosted

	for f := range want {
		if len(got[f]) != len(want[f]) {
			t.Fatalf("flow %d: traced stack delivered %d messages, plain %d", f, len(got[f]), len(want[f]))
		}
		for i := range want[f] {
			if !bytes.Equal(got[f][i], want[f][i]) {
				t.Fatalf("flow %d message %d differs between traced and plain stacks", f, i)
			}
			if _, seq, _, ok := readMsg(got[f][i], seed); !ok || seq != uint64(i) {
				t.Fatalf("flow %d message %d: seq %d ok %v", f, i, seq, ok)
			}
		}
	}
	if posts := uint64(lc.posts.Load()); posts != frames || posts == 0 {
		t.Errorf("decorator counted %d posts, engines posted %d frames", posts, frames)
	}
	if r := lc.busyRefusals.Load() + lc.postErrors.Load(); r != 0 {
		t.Errorf("%d refused posts", r)
	}
	sp := tr.collect()
	for _, k := range []spanKind{spDeliver, spActivation, spBuild, spPost, spRecv} {
		if sp.count(k) == 0 {
			t.Errorf("no %s spans recorded", kindNames[k])
		}
	}
	if d := sp.count(spDeliver); d != n {
		t.Errorf("%d deliver spans, want %d", d, n)
	}
}

// The engine finds failover and liveness hooks by type assertion; the
// decorator must expose them and reach the mesh underneath.
func TestTracedRailForwardsOptionalInterfaces(t *testing.T) {
	meshes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	var d drivers.Driver = newTracedRail(meshes[0], newTracer(0), &layerCounts{})
	if _, ok := d.(drivers.FrameLossNotifier); !ok {
		t.Error("decorator hides FrameLossNotifier")
	}
	dn, ok := d.(drivers.PeerDownNotifier)
	if !ok {
		t.Fatal("decorator hides PeerDownNotifier")
	}
	pc, ok := d.(drivers.PeerChecker)
	if !ok {
		t.Fatal("decorator hides PeerChecker")
	}
	down := make(chan packet.NodeID, 1)
	dn.SetPeerDownHandler(func(p packet.NodeID) { down <- p })
	if pc.PeerDown(1) {
		t.Fatal("peer down before the break")
	}
	meshes[0].BreakPeer(1)
	select {
	case p := <-down:
		if p != 1 {
			t.Errorf("peer-down handler got %d, want 1", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer-down handler installed through the decorator never fired")
	}
	if !pc.PeerDown(1) {
		t.Error("PeerDown through the decorator misses the break")
	}
}

// Every workload runs clean on both stacks: set-up, warm-up, one measured
// slice and the drain, with no failed op.
func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				var tr *tracer
				var lc *layerCounts
				if traced {
					tr, lc = newTracer(100), &layerCounts{}
				}
				e, run, err := setUp(w, 5, tr, lc)
				if err != nil {
					t.Fatal(err)
				}
				win, err := measure(e, run, 1)
				e.st.close()
				if err != nil {
					t.Fatal(err)
				}
				if f := e.ck.finish(); f.total() != 0 {
					t.Errorf("failures: %+v", f)
				}
				if ops := win.whole().ops; ops <= 0 {
					t.Errorf("no ops completed in the window")
				}
				if traced {
					if _, err := replayCodec(lc.shapes, 5); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}
