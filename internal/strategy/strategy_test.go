package strategy

import (
	"testing"
	"testing/quick"

	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

var (
	mxCaps = caps.MX
	mem    = memsim.DefaultModel()
)

// mkBacklog builds packets with ascending SubmitSeq; spec is (flow, dst,
// size) triples.
func mkBacklog(spec ...[3]int) []*packet.Packet {
	out := make([]*packet.Packet, 0, len(spec))
	for i, s := range spec {
		out = append(out, &packet.Packet{
			Flow: packet.FlowID(s[0]), Msg: 1, Seq: i, Src: 0,
			Dst: packet.NodeID(s[1]), Class: packet.ClassSmall,
			Payload:   make([]byte, s[2]),
			SubmitSeq: uint64(i + 1),
		})
	}
	return out
}

func ctxWith(backlog []*packet.Packet) *Context {
	return &Context{Caps: mxCaps, Mem: mem, Backlog: backlog}
}

func TestFIFOTakesHeadOnly(t *testing.T) {
	b := FIFO{}
	if b.Build(ctxWith(nil)) != nil {
		t.Fatal("plan from empty backlog")
	}
	backlog := mkBacklog([3]int{1, 1, 64}, [3]int{2, 1, 64})
	plan := b.Build(ctxWith(backlog))
	if len(plan.Packets) != 1 || plan.Packets[0] != backlog[0] {
		t.Fatalf("fifo took %d packets", len(plan.Packets))
	}
	if plan.HostExtra != 0 {
		t.Fatal("single packet should have no staging cost")
	}
	if b.Name() != "fifo" {
		t.Fatal("name")
	}
}

func TestAggregateMixesFlows(t *testing.T) {
	backlog := mkBacklog(
		[3]int{1, 1, 64}, [3]int{2, 1, 64}, [3]int{3, 1, 64}, [3]int{4, 1, 64})
	plan := NewAggregate().Build(ctxWith(backlog))
	if len(plan.Packets) != 4 {
		t.Fatalf("aggregated %d of 4 same-dst packets", len(plan.Packets))
	}
	if !packet.OrderedSubset(plan.Packets) {
		t.Fatal("plan violates intra-flow order")
	}
	if plan.Score <= 0 {
		t.Fatalf("aggregation of 4 small packets scored %v, want positive", plan.Score)
	}
}

func TestAggregateRespectsDestination(t *testing.T) {
	backlog := mkBacklog([3]int{1, 1, 64}, [3]int{2, 2, 64}, [3]int{3, 1, 64})
	plan := NewAggregate().Build(ctxWith(backlog))
	if len(plan.Packets) != 2 {
		t.Fatalf("plan has %d packets, want head-dst pair", len(plan.Packets))
	}
	for _, p := range plan.Packets {
		if p.Dst != 1 {
			t.Fatal("foreign destination aggregated")
		}
	}
}

func TestAggregateCrossDestinationPacketsAreIndependent(t *testing.T) {
	// Flow 2's first packet goes to dst 2; its second to dst 1. They are
	// different connections with independent sequence spaces, so the dst-1
	// aggregate may legally include flow 2's dst-1 packet.
	backlog := mkBacklog([3]int{1, 1, 64}, [3]int{2, 2, 64}, [3]int{2, 1, 64})
	plan := NewAggregate().Build(ctxWith(backlog))
	if len(plan.Packets) != 2 {
		t.Fatalf("plan took %d packets, want dst-1 pair across connections", len(plan.Packets))
	}
	if !packet.OrderedSubset(plan.Packets) {
		t.Fatal("ordering oracle rejects the plan")
	}
}

func TestAggregateRespectsIntraConnectionOrder(t *testing.T) {
	// Same flow, same destination: once a packet is skipped (too big for
	// the remaining frame budget), later packets of that connection must
	// not be taken.
	backlog := mkBacklog(
		[3]int{1, 1, 64},
		[3]int{2, 1, 40 << 10}, // flow 2 to dst 1: exceeds MaxAggregate with head
		[3]int{2, 1, 64},       // flow 2 to dst 1 again: must NOT overtake
		[3]int{3, 1, 64})
	plan := NewAggregate().Build(ctxWith(backlog))
	for _, p := range plan.Packets {
		if p.Flow == 2 && p.Size() == 64 {
			t.Fatal("later flow-2 packet overtook its skipped predecessor")
		}
	}
	if !packet.OrderedSubset(plan.Packets) {
		t.Fatal("ordering oracle rejects the plan")
	}
}

func TestAggregateRespectsMaxIOV(t *testing.T) {
	spec := make([][3]int, 0, 20)
	for i := 0; i < 20; i++ {
		spec = append(spec, [3]int{i + 1, 1, 16})
	}
	plan := NewAggregate().Build(ctxWith(mkBacklog(spec...)))
	if len(plan.Packets) != mxCaps.MaxIOV {
		t.Fatalf("aggregated %d, want MaxIOV=%d", len(plan.Packets), mxCaps.MaxIOV)
	}
}

func TestAggregateRespectsMaxAggregate(t *testing.T) {
	// Two 20 KiB packets exceed MX's 32 KiB frame limit.
	backlog := mkBacklog([3]int{1, 1, 20 << 10}, [3]int{2, 1, 20 << 10})
	plan := NewAggregate().Build(ctxWith(backlog))
	if len(plan.Packets) != 1 {
		t.Fatalf("aggregated %d packets beyond MaxAggregate", len(plan.Packets))
	}
}

func TestAggregateCopyOnlyDriverStillAggregates(t *testing.T) {
	// Elan has MaxIOV=1: aggregation happens by copy, so the count is
	// byte-limited, not slot-limited, and HostExtra charges the memcpy.
	backlog := mkBacklog(
		[3]int{1, 1, 256}, [3]int{2, 1, 256}, [3]int{3, 1, 256}, [3]int{4, 1, 256})
	ctx := &Context{Caps: caps.Elan, Mem: mem, Backlog: backlog}
	plan := NewAggregate().Build(ctx)
	if len(plan.Packets) != 4 {
		t.Fatalf("copy-based aggregation took %d", len(plan.Packets))
	}
	wantCopy := mem.CopyCost(4 * 256)
	if plan.HostExtra != wantCopy {
		t.Fatalf("HostExtra = %v, want copy cost %v", plan.HostExtra, wantCopy)
	}
}

func TestAggregateGatherHostExtra(t *testing.T) {
	backlog := mkBacklog([3]int{1, 1, 64}, [3]int{2, 1, 64})
	plan := NewAggregate().Build(ctxWith(backlog))
	if plan.HostExtra != mem.GatherCost(2) {
		t.Fatalf("HostExtra = %v, want gather cost %v", plan.HostExtra, mem.GatherCost(2))
	}
}

func TestAggregateIntraflowVariant(t *testing.T) {
	a := &Aggregate{CrossFlow: false}
	if a.Name() != "aggregate-intraflow" {
		t.Fatal("name")
	}
	backlog := mkBacklog([3]int{1, 1, 64}, [3]int{2, 1, 64}, [3]int{1, 1, 64})
	plan := a.Build(ctxWith(backlog))
	if len(plan.Packets) != 2 {
		t.Fatalf("intraflow variant took %d", len(plan.Packets))
	}
	for _, p := range plan.Packets {
		if p.Flow != 1 {
			t.Fatal("foreign flow in intraflow plan")
		}
	}
}

func TestAggregateMaxPacketsOption(t *testing.T) {
	a := &Aggregate{CrossFlow: true, MaxPackets: 2}
	backlog := mkBacklog([3]int{1, 1, 8}, [3]int{2, 1, 8}, [3]int{3, 1, 8})
	plan := a.Build(ctxWith(backlog))
	if len(plan.Packets) != 2 {
		t.Fatalf("MaxPackets ignored: %d", len(plan.Packets))
	}
}

func TestAggregateEagerOnlyOption(t *testing.T) {
	a := &Aggregate{CrossFlow: true, EagerOnlyAggregation: true}
	backlog := mkBacklog([3]int{1, 1, 8}, [3]int{2, 1, 8}, [3]int{3, 1, 8})
	backlog[1].Class = packet.ClassBulk
	plan := a.Build(ctxWith(backlog))
	if len(plan.Packets) != 2 {
		t.Fatalf("took %d", len(plan.Packets))
	}
	for _, p := range plan.Packets {
		if p.Class == packet.ClassBulk {
			t.Fatal("bulk pulled into eager aggregate")
		}
	}
}

func TestBoundedSearchFindsBetterDestination(t *testing.T) {
	// Head goes to dst 1 alone; dst 2 has 8 aggregatable packets. With
	// enough budget, search should pick the dst-2 aggregate (higher
	// score); with budget 1 it can only consider the head.
	spec := [][3]int{{1, 1, 64}}
	for i := 0; i < 8; i++ {
		spec = append(spec, [3]int{i + 2, 2, 64})
	}
	backlog := mkBacklog(spec...)

	rich := &Context{Caps: mxCaps, Mem: mem, Backlog: backlog, Budget: 64}
	plan := NewBoundedSearch(0).Build(rich)
	if plan.Packets[0].Dst != 2 || len(plan.Packets) != 8 {
		t.Fatalf("budget=64 chose dst=%d n=%d, want dst-2 aggregate of 8", plan.Packets[0].Dst, len(plan.Packets))
	}

	poor := &Context{Caps: mxCaps, Mem: mem, Backlog: backlog, Budget: 1}
	plan = NewBoundedSearch(0).Build(poor)
	if plan.Evaluated != 1 {
		t.Fatalf("budget=1 evaluated %d", plan.Evaluated)
	}
	if plan.Packets[0].Dst != 1 {
		t.Fatal("budget=1 should only have examined the head candidate")
	}
}

func TestBoundedSearchRespectsBudget(t *testing.T) {
	spec := make([][3]int, 0, 30)
	for i := 0; i < 30; i++ {
		spec = append(spec, [3]int{i + 1, (i % 5) + 1, 64})
	}
	backlog := mkBacklog(spec...)
	for _, budget := range []int{1, 2, 4, 8, 16} {
		ctx := &Context{Caps: mxCaps, Mem: mem, Backlog: backlog, Budget: budget}
		plan := NewBoundedSearch(0).Build(ctx)
		if plan == nil {
			t.Fatalf("budget %d: nil plan", budget)
		}
		if plan.Evaluated > budget {
			t.Fatalf("budget %d: evaluated %d", budget, plan.Evaluated)
		}
		if !packet.OrderedSubset(plan.Packets) {
			t.Fatalf("budget %d: unordered plan", budget)
		}
	}
}

func TestBoundedSearchEmptyAndDefaults(t *testing.T) {
	s := NewBoundedSearch(-3)
	if s.DefaultBudget != 16 {
		t.Fatal("bad default budget clamp")
	}
	if s.Build(ctxWith(nil)) != nil {
		t.Fatal("plan from empty backlog")
	}
	if s.Name() != "search" {
		t.Fatal("name")
	}
}

// Property: for arbitrary backlogs, every builder emits plans that (a)
// respect intra-flow order, (b) share one destination, and (c) stay within
// the capability limits.
func TestBuilderInvariantsProperty(t *testing.T) {
	builders := []PlanBuilder{FIFO{}, NewAggregate(), &Aggregate{CrossFlow: false}, NewBoundedSearch(8)}
	f := func(seed uint64, n uint8) bool {
		rng := simnet.NewRNG(seed)
		count := int(n%24) + 1
		backlog := make([]*packet.Packet, 0, count)
		for i := 0; i < count; i++ {
			backlog = append(backlog, &packet.Packet{
				Flow:      packet.FlowID(rng.Intn(4) + 1),
				Msg:       1,
				Seq:       i,
				Dst:       packet.NodeID(rng.Intn(3) + 1),
				Class:     packet.ClassID(rng.Intn(int(packet.NumClasses))),
				Payload:   make([]byte, rng.Intn(4096)),
				SubmitSeq: uint64(i + 1),
			})
		}
		for _, b := range builders {
			plan := b.Build(ctxWith(backlog))
			if plan == nil || len(plan.Packets) == 0 {
				return false
			}
			if !packet.OrderedSubset(plan.Packets) {
				return false
			}
			dst := plan.Packets[0].Dst
			size := 0
			for _, p := range plan.Packets {
				if p.Dst != dst {
					return false
				}
				size += p.Size()
			}
			if size > mxCaps.MaxAggregate && len(plan.Packets) > 1 {
				return false
			}
			if len(plan.Packets) > mxCaps.MaxIOV {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorMatchesAggregationIntuition(t *testing.T) {
	pkts := mkBacklog([3]int{1, 1, 64}, [3]int{2, 1, 64}, [3]int{3, 1, 64})
	agg := FrameOccupancy(mxCaps, mem, pkts)
	sep := SeparateOccupancy(mxCaps, mem, pkts)
	if agg >= sep {
		t.Fatalf("aggregate occupancy %v !< separate %v", agg, sep)
	}
	// Score consistency.
	plan := &Plan{Packets: pkts}
	ScorePlan(mxCaps, mem, plan)
	if plan.Score != sep-agg {
		t.Fatalf("score %v != %v", plan.Score, sep-agg)
	}
}

func TestEstimatorPIOBoundary(t *testing.T) {
	small := mkBacklog([3]int{1, 1, 32})
	big := mkBacklog([3]int{1, 1, 4096})
	smallOcc := FrameOccupancy(mxCaps, mem, small)
	bigOcc := FrameOccupancy(mxCaps, mem, big)
	if smallOcc >= bigOcc {
		t.Fatal("PIO send should be cheaper than large DMA send")
	}
}

// TestPlanStorageReusedAcrossBuilds drives every builder that fills the
// context's plan storage through one Context, as the engine does across
// pumps: each plan must equal the plan a fresh Context yields, the
// backlog view must never be written through the reused storage, and a
// warmed Context must build without allocating.
func TestPlanStorageReusedAcrossBuilds(t *testing.T) {
	backlogs := [][]*packet.Packet{
		mkBacklog([3]int{1, 1, 64}, [3]int{2, 1, 64}, [3]int{3, 2, 64}, [3]int{1, 1, 64}),
		mkBacklog([3]int{4, 2, 64}),
		mkBacklog([3]int{1, 1, 64}, [3]int{2, 1, 64}, [3]int{3, 1, 64}, [3]int{4, 1, 64}, [3]int{5, 1, 64}, [3]int{6, 2, 64}),
		mkBacklog([3]int{7, 3, 64}, [3]int{8, 3, 64}),
	}
	for _, b := range []PlanBuilder{FIFO{}, NewAggregate(), NewDensest()} {
		shared := &Context{Caps: mxCaps, Mem: mem}
		var view []*packet.Packet // one backing array, like the shard's view scratch
		for round := 0; round < 3; round++ {
			for i, backlog := range backlogs {
				view = append(view[:0], backlog...)
				shared.Backlog = view
				got := b.Build(shared)
				want := b.Build(ctxWith(backlog))
				if len(got.Packets) != len(want.Packets) || got.Evaluated != want.Evaluated || got.Score != want.Score {
					t.Fatalf("%s backlog %d: reused-context plan %+v, fresh %+v", b.Name(), i, got, want)
				}
				for j := range got.Packets {
					if got.Packets[j] != want.Packets[j] {
						t.Fatalf("%s backlog %d: packet %d differs from the fresh-context plan", b.Name(), i, j)
					}
				}
				for j := range view {
					if view[j] != backlog[j] {
						t.Fatalf("%s backlog %d: Build wrote into the backlog view at %d", b.Name(), i, j)
					}
				}
			}
		}
		if b.Name() == "densest" {
			continue // its density tally is a map per Build
		}
		shared.Backlog = backlogs[2]
		if allocs := testing.AllocsPerRun(100, func() { b.Build(shared) }); allocs > 0 {
			t.Fatalf("%s on a warmed Context costs %.2f allocs/build, want 0", b.Name(), allocs)
		}
	}
}
