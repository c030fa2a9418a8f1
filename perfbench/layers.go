package main

import (
	"sort"
	"strings"
	"time"
)

// perLayer lists every per-layer metric in output order with its unit.
// A metric of a layer the workload never calls reads 0; BENCHMARK.json
// lists the same names.
var perLayer = []struct{ name, unit string }{
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"des.run_s", "s"},
	{"des.crit_path_events", "count"},
	{"workload.new_s", "s"},
	{"workload.init_s", "s"},
	{"tracker.faults", "count"},
	{"tracker.slices", "count"},
	{"tracker.iws_MB", "MB"},
	{"mpi.sends", "count"},
	{"mpi.bytes_sent", "B"},
	{"kernels.sweeps", "count"},
	{"autonomic.run_s", "s"},
	{"autonomic.failures", "count"},
	{"autonomic.recoveries", "count"},
	{"autonomic.degraded_recoveries", "count"},
	{"autonomic.lost_iterations", "count"},
	{"ckpt.lines", "count"},
	{"ckpt.volume_MB", "MB"},
	{"ckpt.aborted_commits", "count"},
	{"ckpt.checkpoint_failures", "count"},
	{"ckptstore.puts", "count"},
	{"ckptstore.gets", "count"},
	{"ckptstore.busy_s", "s"},
	{"ckptstore.self_s", "s"},
	{"ckptstore.put_us_p50", "us"},
	{"ckptstore.put_us_tail", "us"},
	{"ckptstore.put_tail_pct", "%"},
	{"ckptstore.put_samples", "count"},
	{"ckptstore.get_us_p50", "us"},
	{"ckptstore.get_us_tail", "us"},
	{"ckptstore.get_tail_pct", "%"},
	{"ckptstore.get_samples", "count"},
	{"ckptstore.batches", "count"},
	{"ckptstore.coalesced_puts", "count"},
	{"ckptstore.sheds", "count"},
	{"storage.put_MB", "MB"},
	{"storage.get_MB", "MB"},
	{"storage.busy_s", "s"},
	{"storage.errors", "count"},
	{"storage.retries", "count"},
	{"storage.read_MB_per_recovery", "MB"},
	{"redundancy.parity_MB", "MB"},
	{"redundancy.rebuilds", "count"},
	{"redundancy.rebuild_failures", "count"},
	{"redundancy.repairs", "count"},
	{"redundancy.l1_read_MB", "MB"},
	{"redundancy.l2_read_MB", "MB"},
	{"redundancy.l3_read_MB", "MB"},
	{"chaos.crashes", "count"},
	{"chaos.domain_crashes", "count"},
	{"chaos.brownout_drops", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// perLayerMetrics fills the per-layer metrics: counters from the traced
// runs, span times as medians over traced runs, latency percentiles over
// every traced call, and the traced runs' slowdown against the untraced
// runs interleaved with them.
func perLayerMetrics(m map[string]value, plain, traced []sample, rec *Recorder) {
	v := map[string]float64{}
	for k, c := range traced[0].outcome.Counts {
		v[k] = c
	}
	totals := make([]map[string]time.Duration, len(traced))
	selfs := make([]map[string]time.Duration, len(traced))
	for i, s := range traced {
		totals[i], selfs[i] = LayerTimes(rec.Spans(), s.runID)
	}
	// spanTime is the median over traced runs of f(total, self) seconds.
	spanTime := func(f func(total, self map[string]time.Duration) time.Duration) float64 {
		per := make([]float64, len(traced))
		for i := range traced {
			per[i] = f(totals[i], selfs[i]).Seconds()
		}
		return median(per)
	}
	byName := func(name string) float64 {
		return spanTime(func(total, _ map[string]time.Duration) time.Duration { return total[name] })
	}
	v["des.run_s"] = byName("des.run")
	v["workload.new_s"] = byName("workload.new")
	v["workload.init_s"] = byName("workload.init")
	v["autonomic.run_s"] = byName("autonomic.run")
	v["ckptstore.busy_s"] = spanTime(func(total, _ map[string]time.Duration) time.Duration { return layerSum(total, "ckptstore.") })
	v["ckptstore.self_s"] = spanTime(func(_, self map[string]time.Duration) time.Duration { return layerSum(self, "ckptstore.") })
	v["storage.busy_s"] = spanTime(func(total, _ map[string]time.Duration) time.Duration { return layerSum(total, "storage.") })
	if engine := v["workload.init_s"] + v["des.run_s"] + v["autonomic.run_s"]; engine > 0 {
		v["des.events_per_s"] = v["des.events"] / engine
	}

	var puts, gets []time.Duration
	spans := map[int]int{}
	for _, s := range rec.Spans() {
		spans[s.Run]++
	}
	perRun := make([]float64, len(traced))
	for i, s := range traced {
		puts = append(puts, s.outcome.PutLatencies...)
		gets = append(gets, s.outcome.GetLatencies...)
		perRun[i] = float64(spans[s.runID])
	}
	v["trace.spans"] = median(perRun)
	latencyMetrics(v, "ckptstore.put", puts)
	latencyMetrics(v, "ckptstore.get", gets)

	v["runtime.gc_cycles"] = median(pick(traced, func(s sample) float64 { return float64(s.gcCycles) }))
	v["runtime.gc_cpu_s"] = median(pick(traced, func(s sample) float64 { return s.gcCPU }))
	wall := func(s sample) float64 { return s.wall.Seconds() }
	v["trace.overhead_pct"] = 100 * (median(pick(traced, wall))/median(pick(plain, wall)) - 1)

	for _, d := range perLayer {
		m[d.name] = value{v[d.name], d.unit}
	}
}

// layerSum adds the times of every span name with the given prefix.
func layerSum(times map[string]time.Duration, prefix string) time.Duration {
	var sum time.Duration
	for name, d := range times {
		if strings.HasPrefix(name, prefix) {
			sum += d
		}
	}
	return sum
}

// latencyMetrics reports a latency distribution as its median and its
// tail: the highest of the standard percentiles that still has at least
// ten samples above it, with the percentile and the sample count.
func latencyMetrics(v map[string]float64, prefix string, lat []time.Duration) {
	v[prefix+"_samples"] = float64(len(lat))
	if len(lat) == 0 {
		return
	}
	us := make([]float64, len(lat))
	for i, d := range lat {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	v[prefix+"_us_p50"] = median(us)
	pct, val := tail(us)
	v[prefix+"_tail_pct"] = pct
	v[prefix+"_us_tail"] = val
}

// tail returns the highest percentile p of sorted, among 50, 90, 99 and
// 99.9, with at least ten samples ranked above it, and the value at p.
// When no percentile above the median qualifies it returns the median's.
func tail(sorted []float64) (pct, val float64) {
	n := len(sorted)
	// rank is the 1-based nearest rank of a percentile given in tenths.
	rank := func(p10 int) int { return max((p10*n+999)/1000, 1) }
	p10 := 500
	for _, p := range []int{900, 990, 999} {
		if n-rank(p) >= 10 {
			p10 = p
		}
	}
	return float64(p10) / 10, sorted[rank(p10)-1]
}
