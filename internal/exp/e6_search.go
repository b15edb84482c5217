package exp

import (
	"fmt"

	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/workload"
)

// E6 — the paper's second named future-work study (§4): "study how to
// bound the number of data rearrangements the optimizer has to evaluate so
// as to determine the best combination of optimization techniques."
//
// The bounded-search builder enumerates candidate frame compositions
// (destination choices × aggregate lengths) under an explicit budget.
// Workload: traffic to several destinations so candidates genuinely
// differ. Reported per budget: plan quality (completion time), candidates
// actually evaluated, and optimizer wall-clock cost — quality saturates at
// a small budget, which is exactly the answer the paper was after.

func init() {
	register(Experiment{
		ID:    "E6",
		Title: "Bounding the rearrangement search budget",
		Claim: "§4 future work: bound the number of rearrangements evaluated per decision",
		Run:   runE6,
	})
}

func e6Point(budget, dests, flowsPerDest, perFlow int, seed uint64) (Metrics, float64, error) {
	rig, err := NewRig(RigOptions{
		ID:           "E6",
		Bundle:       "search",
		SearchBudget: budget,
		Nodes:        dests + 1,
	})
	if err != nil {
		return Metrics{}, 0, err
	}
	d := workload.NewDriver(rig.Cl.Eng, rig.Engines, seed)
	flow := 1
	for dst := 1; dst <= dests; dst++ {
		for f := 0; f < flowsPerDest; f++ {
			d.Add(workload.FlowSpec{
				Flow: packet.FlowID(flow), Src: 0, Dst: packet.NodeID(dst),
				Class:   packet.ClassSmall,
				Size:    workload.Uniform{Lo: 32, Hi: 512},
				Arrival: &workload.Bursts{Size: 8, Gap: 40 * simnet.Microsecond},
				Count:   perFlow,
			})
			flow++
		}
	}
	m, err := rig.Run(dests * flowsPerDest * perFlow)
	if err != nil {
		return Metrics{}, 0, err
	}
	tot := sumMetrics(rig.engines())
	if tot.Plans == 0 {
		return m, 0, nil
	}
	return m, float64(tot.PlanEvaluated) / float64(tot.Plans), nil
}

func runE6(cfg Config) []*stats.Table {
	dests, flowsPerDest, perFlow := 4, 3, 24
	budgets := []int{1, 2, 4, 8, 16, 32, 64}
	if cfg.Quick {
		dests, flowsPerDest, perFlow = 3, 2, 8
		budgets = []int{1, 4, 16}
	}
	t := stats.NewTable("E6 — rearrangement search budget sweep (4 destinations, bursty)",
		"budget", "time(µs)", "frames", "avg evaluated", "wall(ms)")
	t.Caption = "plan quality saturates at a small budget; beyond it only optimizer CPU grows"
	for _, b := range budgets {
		m, eval, err := e6Point(b, dests, flowsPerDest, perFlow, cfg.Seed)
		if err != nil {
			panic(err)
		}
		t.AddRow(
			fmt.Sprintf("%d", b),
			stats.FormatFloat(float64(m.End)/1000),
			fmt.Sprintf("%d", m.Frames),
			stats.FormatFloat(eval),
			stats.FormatFloat(float64(m.Wall.Microseconds())/1000),
		)
	}
	return []*stats.Table{t}
}

// E6Quality returns the completion time for a budget (test oracle).
func E6Quality(budget int, cfg Config) float64 {
	dests, flowsPerDest, perFlow := 4, 3, 24
	if cfg.Quick {
		dests, flowsPerDest, perFlow = 3, 2, 8
	}
	m, _, err := e6Point(budget, dests, flowsPerDest, perFlow, cfg.Seed)
	if err != nil {
		panic(err)
	}
	return float64(m.End)
}
