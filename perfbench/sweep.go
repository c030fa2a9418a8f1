package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// The iws-sweep workloads reproduce the paper's instrumentation
// measurement (Table 4, Figures 2-3): every application model at 64
// ranks, each under every Figure 2 timeslice.

// sweepRanks is the paper's process count.
const sweepRanks = 64

// sweepTimeslices are the Figure 2 timeslices, in seconds.
var sweepTimeslices = []des.Time{1, 2, 5, 10, 20}

// sweepCell is one (application, timeslice) measurement.
type sweepCell struct {
	spec      workload.Spec
	timeslice des.Time
	seed      uint64
}

// sweepCells generates the sweep's inputs: the cross product of apps and
// timeslices, each cell with its own jitter seed derived from seed.
func sweepCells(seed uint64) []sweepCell {
	var cells []sweepCell
	for _, spec := range workload.All() {
		for _, ts := range sweepTimeslices {
			cells = append(cells, sweepCell{spec: spec, timeslice: ts * des.Second, seed: mix(seed, uint64(len(cells)))})
		}
	}
	return cells
}

// sweep is a prepared iws-sweep run: the generated cells and the
// sequential reference digests the timed runs must reproduce.
type sweep struct {
	cells  []sweepCell
	shards int
	ref    []uint64
}

// setupSweep generates the cells and measures the reference through
// experiments.RunOne on the sequential engine.
func setupSweep(seed uint64, shards int) (Prepared, error) {
	cells := sweepCells(seed)
	ref := make([]uint64, len(cells))
	for i, c := range cells {
		res, err := experiments.RunOne(c.spec, experiments.RunOpts{Ranks: sweepRanks, Timeslice: c.timeslice, Seed: c.seed})
		if err != nil {
			return nil, fmt.Errorf("reference %s @ %v: %w", c.spec.Name, c.timeslice, err)
		}
		ref[i] = seriesDigest(res.IWS, res.IB)
	}
	return &sweep{cells: cells, shards: shards, ref: ref}, nil
}

func setupSweepSeq(seed uint64) (Prepared, error) { return setupSweep(seed, 0) }

func setupSweepSharded(seed uint64) (Prepared, error) {
	return setupSweep(seed, max(2, runtime.NumCPU()))
}

// Run measures every cell through workload and tracker directly, with
// spans around the runner's construction, its initialization burst and
// its measured window.
func (s *sweep) Run(rec *Recorder) (Outcome, error) {
	out := Outcome{Counts: map[string]float64{}}
	got := make([]uint64, len(s.cells))
	for i, c := range s.cells {
		d, err := s.runCell(c, rec, &out)
		if err != nil {
			return out, err
		}
		got[i] = d
	}
	out.Check = checkDigests(s.ref, got)
	return out, nil
}

// runCell mirrors experiments.RunOne's protocol: attach the tracker at
// the first iteration boundary, then measure whole timeslices covering
// at least three periods and six slices.
func (s *sweep) runCell(c sweepCell, rec *Recorder, out *Outcome) (uint64, error) {
	cell := rec.Begin("iws.cell")
	defer rec.End(cell)

	span := rec.Begin("workload.new")
	r, err := workload.New(c.spec, workload.Config{Ranks: sweepRanks, Seed: c.seed, Shards: s.shards})
	if err != nil {
		return 0, err
	}
	tr, err := tracker.New(r.EngineFor(0), r.Space(0), tracker.Options{Timeslice: c.timeslice})
	if err != nil {
		return 0, err
	}
	tr.AttachRank(r.World, 0)
	rec.End(span)

	span = rec.Begin("workload.init")
	r.Run(r.InitTail())
	for r.IterZero() == 0 {
		if !r.Eng.Step() {
			return 0, fmt.Errorf("%s never reached iteration 0", c.spec.Name)
		}
	}
	tr.Start()
	rec.End(span)

	period := c.spec.PeriodAt(sweepRanks)
	dur := 3 * period
	if minDur := 6 * c.timeslice; dur < minDur {
		dur = (minDur + period - 1) / period * period
	}
	slices := dur / c.timeslice
	span = rec.Begin("des.run")
	r.Run(r.Now() + slices*c.timeslice)
	tr.Stop()
	rec.End(span)

	out.VirtualSeconds += r.Now().Seconds()
	out.Counts["des.events"] += float64(r.Eng.Fired())
	out.Counts["des.crit_path_events"] += float64(r.CriticalPathEvents())
	out.Counts["tracker.faults"] += float64(tr.TotalFaults())
	out.Counts["tracker.slices"] += float64(len(tr.Samples()))
	for _, smp := range tr.Samples() {
		out.Counts["tracker.iws_MB"] += float64(smp.IWSBytes) / 1e6
	}
	for i := 0; i < r.World.Size(); i++ {
		st := r.World.Rank(i).Stats()
		out.Counts["mpi.sends"] += float64(st.Sends)
		out.Counts["mpi.bytes_sent"] += float64(st.BytesSent)
	}
	return seriesDigest(tr.IWSSeries(), tr.IBSeries()), nil
}

// seriesDigest hashes the exact bits of every point of the given series.
func seriesDigest(series ...*metrics.Series) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range series {
		put(float64(s.Len()))
		for _, p := range s.Points {
			put(p.T)
			put(p.V)
		}
	}
	return h.Sum64()
}

// mix derives a non-zero sub-seed from a seed and an index (splitmix64).
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
