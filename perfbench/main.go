// Command perfbench is the repository benchmark. It runs one workload
// through the packages' public entry points for a fixed wall-clock
// budget, checks every run's outputs against a reference, and prints the
// metrics as one JSON object on the last line of standard output:
// end-to-end metrics from untraced runs, or with -trace 1 per-layer
// metrics from runs that record spans around the calls into each layer.
//
//	go run . --workload iws-sweep --seed 1 --seconds 10 --trace 0
//
// The wrapper perfbench/run.py builds this package inside the checkout
// and runs it from the repository root. Traced runs write their spans
// under .bench_build/trace in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// Prepared is a workload after set-up: inputs generated from the seed
// and the reference outputs computed.
type Prepared interface {
	// Run executes one timed run. rec is nil in untraced runs; a traced
	// run records spans into it and wraps stores with timing wrappers.
	Run(rec *Recorder) (Outcome, error)
}

// Outcome is what one timed run produced.
type Outcome struct {
	// VirtualSeconds is the application time the run simulated.
	VirtualSeconds float64
	// Counts holds the run's per-layer counters. They are deterministic:
	// every run of one seed must report the same values.
	Counts map[string]float64
	// PutLatencies and GetLatencies are the service client's per-call
	// wall-clock latencies (traced runs of the service workload only).
	PutLatencies, GetLatencies []time.Duration
	// Check is the output check's verdict (nil when the outputs match).
	Check error
}

// workloadDef names a workload, says why it is in the benchmark, and
// prepares it from a seed.
type workloadDef struct {
	name, why string
	setup     func(seed uint64) (Prepared, error)
}

var workloads = []workloadDef{
	{"iws-sweep", "the paper's IWS/IB measurement at paper scale on the sequential engine: des, mem, tracker, mpi", setupSweepSeq},
	{"iws-sweep-sharded", "the same sweep on a des.Group with one shard per CPU, checked bit-identical to the sequential reference", setupSweepSharded},
	{"supervised-2pc-service", "two-phase commit through a 3-replica checkpoint-store service under node crashes and a storage brownout", setupService},
	{"multilevel-rs-recovery", "multi-level RS 2+2 parity over 2-rank failure domains; domain crashes force parity rebuilds, never L3 reads", setupMultiLevel},
}

// An untraced invocation sets the workload up at least setupRepeats
// times, and more (up to setupMaxRepeats) while the set-ups together
// took under setupMinTime; setup_s is their median.
const (
	setupRepeats    = 3
	setupMaxRepeats = 41
	setupMinTime    = 3 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "wall-clock budget of the timed runs")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	res, err := measure(*def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, filepath.Join(".bench_build", "trace"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// sample is one timed run's cost.
type sample struct {
	wall       time.Duration
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcCPU      float64
	outcome    Outcome
	// runID is the recorder's run id of a traced run.
	runID int
}

// measure sets the workload up, then alternates timed runs until the
// budget is spent: all untraced, or untraced and traced in turn.
func measure(def workloadDef, seed uint64, budget time.Duration, trace bool, traceDir string) (*result, error) {
	var setups []float64
	var setupTime time.Duration
	var prep Prepared
	for more := true; more; {
		runtime.GC()
		t0 := time.Now()
		p, err := def.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setups, setupTime, prep = append(setups, d.Seconds()), setupTime+d, p
		more = !trace && (len(setups) < setupRepeats || setupTime < setupMinTime && len(setups) < setupMaxRepeats)
	}

	var rec *Recorder
	if trace {
		rec = NewRecorder()
	}
	var plain, traced []sample
	var t tally
	baseline := map[string]float64{}
	start := time.Now()
	for i := 0; time.Since(start) < budget || len(plain) < minPlainRuns(trace) || trace && len(traced) == 0; i++ {
		var r *Recorder
		if trace && i%2 == 1 {
			r = rec
			r.StartRun()
		}
		s, err := timeRun(prep, r)
		if err == nil {
			err = s.outcome.Check
		}
		if err == nil {
			err = sameCounts(baseline, s.outcome.Counts)
		}
		t.add(err)
		fmt.Fprintf(os.Stderr, "perfbench: run %d traced=%v %.4fs err=%v\n", i, r != nil, s.wall.Seconds(), err)
		if r != nil {
			s.runID = r.run
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	if t.first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d runs failed; first: %v\n", def.name, t.failed, t.attempted, t.first)
	}

	walls := pick(plain, func(s sample) float64 { return s.wall.Seconds() })
	q1, q3 := quartiles(walls)
	fmt.Fprintf(os.Stderr, "perfbench: %s: run_s median %.4f q1 %.4f q3 %.4f over %d untraced runs\n", def.name, median(walls), q1, q3, len(walls))

	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	if !trace {
		endToEnd(res.Metrics, setups, plain, &t)
	} else {
		perLayerMetrics(res.Metrics, plain, traced, rec)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.tsv", def.name, seed))
		if err := rec.WriteFile(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rec.Spans()), path)
	}
	return res, nil
}

// minPlainRuns is the fewest untraced runs an invocation makes, however
// long they take: three let the median of a workload whose run is a
// large share of the budget ignore one disturbed run. A traced
// invocation needs one untraced run to compare against.
func minPlainRuns(trace bool) int {
	if trace {
		return 1
	}
	return 3
}

// timeRun runs once from a collected heap and measures its wall-clock
// time, heap allocation and garbage-collection work.
func timeRun(p Prepared, rec *Recorder) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	t0 := time.Now()
	out, err := p.Run(rec)
	wall := time.Since(t0)
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	return sample{
		wall:       wall,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		allocs:     m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcCPU:      gc1 - gc0,
		outcome:    out,
	}, err
}

// gcCPUSeconds is the runtime's running estimate of CPU time spent on
// garbage collection.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// sameCounts checks a run's counters against the first run's and adopts
// counters seen for the first time (traced runs report more of them).
func sameCounts(baseline, counts map[string]float64) error {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := counts[k]
		if b, ok := baseline[k]; ok && b != v {
			return fmt.Errorf("counter %s = %v, first run had %v", k, v, b)
		}
		baseline[k] = v
	}
	return nil
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(m map[string]value, setups []float64, runs []sample, t *tally) {
	walls := pick(runs, func(s sample) float64 { return s.wall.Seconds() })
	vsec := pick(runs, func(s sample) float64 { return s.outcome.VirtualSeconds / s.wall.Seconds() })
	m["setup_s"] = value{median(setups), "s"}
	m["run_s"] = value{median(walls), "s"}
	m["vsec_per_s"] = value{median(vsec), "vs/s"}
	m["alloc_MB"] = value{median(pick(runs, func(s sample) float64 { return float64(s.allocBytes) / 1e6 })), "MB"}
	m["allocs_k"] = value{median(pick(runs, func(s sample) float64 { return float64(s.allocs) / 1e3 })), "k"}
	m["ok_frac"] = value{t.okFrac(), "frac"}
}

func pick(runs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(runs))
	for i, s := range runs {
		out[i] = f(s)
	}
	return out
}

// quartiles returns the medians of the lower and upper halves of v.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return median(s[:(n+1)/2]), median(s[n/2:])
}

// median returns the middle value (the mean of the middle two for an
// even count), 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
