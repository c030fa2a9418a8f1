package main

import (
	"testing"

	"repro/internal/experiments"
)

// TestSweepCellMatchesRunOne runs the two cheapest sweep cells through
// the benchmark's instrumented path, sequentially and sharded, traced
// and untraced, against experiments.RunOne's reference digests.
func TestSweepCellMatchesRunOne(t *testing.T) {
	var cells []sweepCell
	for _, c := range sweepCells(5) {
		if c.spec.Name == "FT" && c.timeslice <= 2e9 {
			cells = append(cells, c)
		}
	}
	if len(cells) != 2 {
		t.Fatalf("found %d FT cells at 1-2 s", len(cells))
	}
	ref := make([]uint64, len(cells))
	for i, c := range cells {
		res, err := experiments.RunOne(c.spec, experiments.RunOpts{Ranks: sweepRanks, Timeslice: c.timeslice, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = seriesDigest(res.IWS, res.IB)
	}
	var first map[string]float64
	for _, shards := range []int{0, 2} {
		for _, rec := range []*Recorder{nil, NewRecorder()} {
			out, err := (&sweep{cells: cells, shards: shards, ref: ref}).Run(rec)
			if err != nil {
				t.Fatal(err)
			}
			if out.Check != nil {
				t.Fatalf("shards %d traced %v: %v", shards, rec != nil, out.Check)
			}
			if out.Counts["tracker.faults"] == 0 || out.Counts["mpi.sends"] == 0 || out.VirtualSeconds == 0 {
				t.Fatalf("shards %d: empty counters %v", shards, out.Counts)
			}
			if first == nil {
				first = out.Counts
			}
			for k, v := range first {
				if k != "des.crit_path_events" && out.Counts[k] != v {
					t.Errorf("shards %d traced %v: %s = %v, sequential %v", shards, rec != nil, k, out.Counts[k], v)
				}
			}
			if rec != nil && len(rec.Spans()) != 4*len(cells) {
				t.Errorf("traced sweep recorded %d spans, want %d", len(rec.Spans()), 4*len(cells))
			}
		}
	}
}
