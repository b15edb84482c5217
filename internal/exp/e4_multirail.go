package exp

import (
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// E4 — §2: the scheduler "may also perform dynamic load balancing on
// multiple resources, multiple NICs, or even NICs from multiple
// technologies."
//
// The plan builder is held fixed (aggregate); only the rail policy varies:
// pinned (the one-to-one flow mapping the paper demotes to a fallback
// policy) versus shared (the pooled scheduler). The workload is
// deliberately unbalanced — odd flows carry 16× the bytes of even flows —
// so a static flow-to-rail mapping strands the heavy flows on one rail
// while the other idles. The shared pool lets whichever NIC goes idle pull
// the next eligible work.

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Dynamic load balancing over multiple NICs and technologies",
		Claim: "§2: pooling multiplexing resources beats static one-to-one flow mapping",
		Run:   runE4,
	})
}

// mx2 is a second Myrinet rail (identical silicon, distinct fabric).
func mx2() caps.Caps {
	c := SingleChannel(caps.MX)
	c.Name = "mx2"
	return c
}

func e4Point(rail strategy.RailPolicy, profiles []caps.Caps, flows, perFlow int, seed uint64) (Metrics, map[string]uint64, error) {
	b, err := strategy.New("aggregate")
	if err != nil {
		return Metrics{}, nil, err
	}
	b.Rail = rail
	rig, err := NewRig(RigOptions{ID: "E4", Profiles: profiles})
	if err != nil {
		return Metrics{}, nil, err
	}
	for _, eng := range rig.Engines {
		if err := eng.SetBundle(b); err != nil {
			return Metrics{}, nil, err
		}
	}
	d := workload.NewDriver(rig.Cl.Eng, rig.Engines, seed)
	for f := 0; f < flows; f++ {
		size := 256
		if f%2 == 1 {
			size = 4096 // heavy flows; pinned maps them all to one rail
		}
		d.Add(workload.FlowSpec{
			Flow: packet.FlowID(f + 1), Src: 0, Dst: 1,
			Class:   packet.ClassSmall,
			Size:    workload.Fixed(size),
			Arrival: workload.BackToBack{},
			Count:   perFlow,
		})
	}
	m, err := rig.Run(flows * perFlow)
	if err != nil {
		return Metrics{}, nil, err
	}
	return m, railFrames(rig.engines()), nil
}

func runE4(cfg Config) []*stats.Table {
	flows, perFlow := 8, 32
	if cfg.Quick {
		flows, perFlow = 4, 12
	}
	mxOnly := []caps.Caps{SingleChannel(caps.MX)}
	dualMX := []caps.Caps{SingleChannel(caps.MX), mx2()}
	hetero := []caps.Caps{SingleChannel(caps.MX), SingleChannel(caps.Elan)}
	affinityHetero := &strategy.AffinityRail{Rails: []caps.Caps{SingleChannel(caps.Elan), SingleChannel(caps.MX)}}

	t := stats.NewTable("E4 — multi-rail load balancing (unbalanced flows, 256 B / 4 KiB)",
		"rails", "policy", "time(µs)", "frames:rail0", "frames:rail1", "speedup vs 1 rail")
	t.Caption = "pinned = static one-to-one flow mapping (paper's fallback); shared = pooled rails"

	base, _, err := e4Point(strategy.SharedRail{}, mxOnly, flows, perFlow, cfg.Seed)
	if err != nil {
		panic(err)
	}
	add := func(label, policy string, rail strategy.RailPolicy, profiles []caps.Caps) {
		m, perRail, err := e4Point(rail, profiles, flows, perFlow, cfg.Seed)
		if err != nil {
			panic(err)
		}
		names := []string{profiles[0].Name, ""}
		if len(profiles) > 1 {
			names[1] = profiles[1].Name
		}
		// NodeDrivers sorts rails by name; report in sorted order too.
		if names[1] != "" && names[1] < names[0] {
			names[0], names[1] = names[1], names[0]
		}
		r0 := fmt.Sprintf("%d", perRail[names[0]])
		r1 := "-"
		if names[1] != "" {
			r1 = fmt.Sprintf("%d", perRail[names[1]])
		}
		t.AddRow(label, policy,
			stats.FormatFloat(float64(m.End)/1000), r0, r1,
			fmt.Sprintf("%.2fx", float64(base.End)/float64(m.End)))
	}
	add("1×MX", "shared", strategy.SharedRail{}, mxOnly)
	add("2×MX", "pinned", strategy.PinnedRail{}, dualMX)
	add("2×MX", "shared", strategy.SharedRail{}, dualMX)
	add("MX+Elan", "pinned", strategy.PinnedRail{}, hetero)
	add("MX+Elan", "shared", strategy.SharedRail{}, hetero)
	add("MX+Elan", "affinity", affinityHetero, hetero)
	return []*stats.Table{t}
}

// E4Times exposes (single-rail, dual-pinned, dual-shared) completion times
// for the shape test.
func E4Times(cfg Config) (single, pinned, shared float64) {
	flows, perFlow := 8, 32
	if cfg.Quick {
		flows, perFlow = 4, 12
	}
	mxOnly := []caps.Caps{SingleChannel(caps.MX)}
	dualMX := []caps.Caps{SingleChannel(caps.MX), mx2()}
	a, _, err := e4Point(strategy.SharedRail{}, mxOnly, flows, perFlow, cfg.Seed)
	if err != nil {
		panic(err)
	}
	b, _, err := e4Point(strategy.PinnedRail{}, dualMX, flows, perFlow, cfg.Seed)
	if err != nil {
		panic(err)
	}
	c, _, err := e4Point(strategy.SharedRail{}, dualMX, flows, perFlow, cfg.Seed)
	if err != nil {
		panic(err)
	}
	return float64(a.End), float64(b.End), float64(c.End)
}
