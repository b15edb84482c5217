package packet

import (
	"math/rand"
	"testing"
)

// orderedSubsetMap is the map-based form of OrderedSubset the engine used
// before the allocation-free scan: the oracle the property test below
// checks the scan against.
func orderedSubsetMap(pkts []*Packet) bool {
	type conn struct {
		f FlowID
		d NodeID
	}
	last := map[conn]uint64{}
	for _, p := range pkts {
		k := conn{p.Flow, p.Dst}
		if prev, ok := last[k]; ok && p.SubmitSeq <= prev {
			return false
		}
		last[k] = p.SubmitSeq
	}
	return true
}

// randomPlan draws a plan over flows×dsts connections. Packets are mostly
// in submission order; with probability disorder a random pair is swapped
// (which may or may not break a connection's order), and with the same
// probability a SubmitSeq is duplicated (equal seqs on one connection
// violate strict increase).
func randomPlan(rng *rand.Rand, n, flows, dsts int, disorder float64) []*Packet {
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = &Packet{
			Flow:      FlowID(rng.Intn(flows)),
			Dst:       NodeID(rng.Intn(dsts)),
			SubmitSeq: uint64(10 + 2*i),
		}
	}
	if n > 1 && rng.Float64() < disorder {
		i, j := rng.Intn(n), rng.Intn(n)
		pkts[i], pkts[j] = pkts[j], pkts[i]
	}
	if n > 1 && rng.Float64() < disorder {
		i, j := rng.Intn(n), rng.Intn(n)
		pkts[i].SubmitSeq = pkts[j].SubmitSeq
	}
	return pkts
}

// TestOrderedSubsetMatchesMapOracle runs the scan and the map oracle over
// random plans: small and large, few and many connections (past the
// scan's stack array, so the spill path is covered), ordered and
// order-violating.
func TestOrderedSubsetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var accepted, rejected int
	for iter := 0; iter < 20000; iter++ {
		n := rng.Intn(80)
		flows := 1 + rng.Intn(48)
		dsts := 1 + rng.Intn(3)
		pkts := randomPlan(rng, n, flows, dsts, 0.5)
		got, want := OrderedSubset(pkts), orderedSubsetMap(pkts)
		if got != want {
			t.Fatalf("iteration %d (n=%d flows=%d dsts=%d): OrderedSubset = %v, oracle = %v", iter, n, flows, dsts, got, want)
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	// The generator must exercise both answers, or the property is vacuous.
	if accepted < 1000 || rejected < 1000 {
		t.Fatalf("generator skewed: %d ordered, %d violating plans", accepted, rejected)
	}
}

// TestOrderedSubsetAllocationFree pins the scan at zero allocations for a
// plan-sized input: 64 packets over 16 connections.
func TestOrderedSubsetAllocationFree(t *testing.T) {
	pkts := randomPlan(rand.New(rand.NewSource(2)), 64, 16, 1, 0)
	if !OrderedSubset(pkts) {
		t.Fatal("ordered plan rejected")
	}
	if allocs := testing.AllocsPerRun(200, func() { OrderedSubset(pkts) }); allocs > 0 {
		t.Fatalf("OrderedSubset costs %.2f allocs/op on a 64-packet plan, want 0", allocs)
	}
}
