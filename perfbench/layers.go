package main

import (
	"fmt"
	"sort"

	"newmad/internal/caps"
	"newmad/internal/stats"
)

// layerMetrics turns the traced window (winT), its spans and counts, the
// codec replay and the untraced window of the same run (winU) into the
// per-layer metrics. Times are µs; "per op" divides by the traced
// window's completed ops.
func layerMetrics(winU, winT *window, sp *spanStats, lc *layerCounts, codec codecResult) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	u, t := winU.whole(), winT.whole()
	ops := float64(max(t.ops, 1))
	wallUs := float64(t.wall.Microseconds())
	eng := struct{ frames, pkts, sub, rdv, retries float64 }{
		float64(winT.eng1.FramesPosted - winT.eng0.FramesPosted),
		float64(winT.eng1.PacketsSent - winT.eng0.PacketsSent),
		float64(winT.eng1.SubmittedBytes - winT.eng0.SubmittedBytes),
		float64(winT.eng1.RdvBytes - winT.eng0.RdvBytes),
		float64(winT.eng1.RdvRetries - winT.eng0.RdvRetries),
	}
	posts := float64(lc.posts.Load())

	// mad
	put("mad.pack_us_p50", "us", sp.at(spPack, 50))
	put("mad.deliver_us_p50", "us", sp.at(spDeliver, 50))

	// core
	put("core.activation_us_p50", "us", sp.at(spActivation, 50))
	put("core.activation_us_p99", "us", sp.at(spActivation, 99))
	put("core.activation_yield", "frames", ratio(float64(sp.desc[spActivation][spPost]), float64(sp.count(spActivation))))
	put("core.pkts_per_frame", "packets", ratio(eng.pkts, eng.frames))
	put("core.queue_wait_us_p50", "us", windowQuantile(winT.qwait0, winT.qwait1, 0.5)/1e3)
	put("core.backlog_peak", "packets", float64(lc.backlogPeak.Load()))

	// strategy
	builds := float64(lc.builds.Load())
	put("strategy.build_us_p50", "us", sp.at(spBuild, 50))
	put("strategy.build_us_p99", "us", sp.at(spBuild, 99))
	put("strategy.busy_frac", "ratio", ratio(sp.durSum[spBuild], wallUs))
	put("strategy.backlog_len_mean", "packets", ratio(float64(lc.backlogSum.Load()), builds))
	put("strategy.nil_plan_frac", "ratio", ratio(float64(lc.nilPlans.Load()), builds))

	// drivers
	lc.mu.Lock()
	holds := append([]float64(nil), lc.holds...)
	lc.mu.Unlock()
	var holdUs float64
	for _, v := range holds {
		holdUs += v
	}
	hold := summarize(holds)
	channels := float64(2 * caps.TCP.Channels)
	put("drivers.post_us_p50", "us", sp.at(spPost, 50))
	put("drivers.chan_hold_us_p50", "us", hold.P50)
	hold99, _ := upTo(holds, 99)
	put("drivers.chan_hold_us_p99", "us", hold99)
	put("drivers.chan_busy_frac", "ratio", ratio(holdUs, wallUs*channels))
	put("drivers.wire_bytes_per_frame_mean", "B", ratio(float64(lc.wireBytes.Load()), posts))
	put("drivers.busy_refusals", "count", float64(lc.busyRefusals.Load()))

	// proto
	put("proto.recv_us_p50", "us", sp.at(spRecv, 50))
	put("proto.recv_us_p99", "us", sp.at(spRecv, 99))
	put("proto.deliveries_per_frame", "packets", ratio(float64(sp.desc[spRecv][spDeliver]), float64(sp.count(spRecv))))
	put("proto.rdv_bytes_frac", "ratio", ratio(eng.rdv, eng.sub))
	put("proto.rdv_retries", "count", eng.retries)

	// packet
	put("packet.encode_us_per_frame", "us", codec.encodeUs)
	put("packet.decode_us_per_frame", "us", codec.decodeUs)
	put("packet.entries_per_frame_mean", "entries", codec.entriesMean)

	// runtime, from the untraced window: tracing allocates and would
	// inflate both.
	put("runtime.gc_cycles_per_kop", "1/kop", 1e3*ratio(float64(u.gcCycles), float64(max(u.ops, 1))))
	put("runtime.gc_cpu_frac", "ratio", u.gcCPUFrac)

	// The ledger: each layer's self time per op, their sum, and the
	// end-to-end cost per op they should add up to. Its bases, the traced
	// window's ops and frames, are printed below.
	var layer = map[string]float64{}
	var sum float64
	for k := spanKind(0); k < numKinds; k++ {
		layer[kindLayer[k]] += sp.selfSum[k] / ops
		sum += sp.selfSum[k] / ops
	}
	for _, l := range []string{"mad", "core", "strategy", "drivers", "proto", "app"} {
		put("ledger."+l+"_us_per_op", "us", layer[l])
	}
	put("ledger.self_sum_us_per_op", "us", sum)
	put("ledger.cpu_us_per_op", "us", t.cpuPerOp)
	put("ledger.wall_us_per_op", "us", wallUs/ops)
	put("ledger.unattributed_frac", "ratio", 1-ratio(sum, t.cpuPerOp))

	// Tracing overhead: traced against untraced, same run.
	put("trace.overhead_frac", "ratio", ratio(u.opsS, t.opsS)-1)
	put("trace.lat_p50_delta_us", "us", t.p50-u.p50)

	fmt.Printf("traced window: ops=%d wall=%v spans=%d frames=%d; untraced ops_s=%.1f traced ops_s=%.1f\n",
		t.ops, t.wall, sp.spans, int64(posts), u.opsS, t.opsS)
	for k := spanKind(0); k < numKinds; k++ {
		what := "self"
		if sampleDuration[k] {
			what = "duration"
		}
		p99, l := upTo(sp.samples[k], 99)
		fmt.Printf("  span %-16s n=%-9d %s p50=%.3f p%g=%.3f us; self %.1f us of %.1f us total\n", kindNames[k], sp.count(k),
			what, sp.at(k, 50), l, float64(p99)/1e3, sp.selfSum[k], sp.durSum[k])
	}
	fmt.Printf("ledger (us/op): mad=%.3f core=%.3f strategy=%.3f drivers=%.3f proto=%.3f app=%.3f | sum=%.3f vs cpu=%.3f wall=%.3f (unattributed %.1f%% of cpu)\n",
		layer["mad"], layer["core"], layer["strategy"], layer["drivers"], layer["proto"], layer["app"],
		sum, t.cpuPerOp, wallUs/ops, 100*(1-ratio(sum, t.cpuPerOp)))
	fmt.Printf("channel holds (us): %v\n", hold)
	fmt.Printf("codec replay: %d sampled frames, encode %.4f us, decode %.4f us per frame\n", codec.frames, codec.encodeUs, codec.decodeUs)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	return m
}

// windowQuantile returns quantile q of the samples a histogram gained
// between two of its snapshots.
func windowQuantile(a, b *stats.Histogram, q float64) float64 {
	ba, bb := a.Buckets(), b.Buckets()
	diff := make(map[int]uint64, len(bb))
	for k, n := range bb {
		if d := n - ba[k]; d > 0 {
			diff[k] = d
		}
	}
	return stats.FromBuckets(diff, b.Count()-a.Count(), b.Sum()-a.Sum(), b.Min(), b.Max()).Quantile(q)
}
