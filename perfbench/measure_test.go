package main

import (
	"testing"
)

// TestTracedInvocation runs each supervised workload the way the traced
// mode does: untraced and traced runs alternate, every run's counters
// must agree, and every per-layer metric is printed.
func TestTracedInvocation(t *testing.T) {
	for _, c := range []struct {
		workload string
		nonzero  []string
		zero     []string
	}{
		{"supervised-2pc-service",
			[]string{"ckptstore.puts", "ckptstore.busy_s", "ckptstore.put_samples", "storage.put_MB", "storage.read_MB_per_recovery", "ckpt.aborted_commits", "chaos.crashes", "autonomic.run_s"},
			[]string{"redundancy.rebuilds", "des.run_s", "tracker.faults"}},
		{"multilevel-rs-recovery",
			[]string{"redundancy.rebuilds", "redundancy.l2_read_MB", "chaos.domain_crashes", "storage.put_MB", "autonomic.run_s"},
			[]string{"redundancy.l3_read_MB", "ckptstore.puts", "storage.get_MB"}},
	} {
		var def workloadDef
		for _, w := range workloads {
			if w.name == c.workload {
				def = w
			}
		}
		res, err := measure(def, 2, 0, true, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
			t.Fatalf("%s: correct %v, %d of %d runs failed", c.workload, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics printed, want %d", c.workload, len(res.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: %s printed as %+v, want unit %s", c.workload, d.name, m, d.unit)
			}
		}
		for _, name := range c.nonzero {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", c.workload, name, res.Metrics[name].Value)
			}
		}
		for _, name := range c.zero {
			if res.Metrics[name].Value != 0 {
				t.Errorf("%s: %s = %v, want 0 (layer not on this path)", c.workload, name, res.Metrics[name].Value)
			}
		}
	}
}
