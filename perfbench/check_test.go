package main

import (
	"testing"
	"time"
)

func goodSupervised() supervisedOutput {
	return supervisedOutput{Completed: true, Digests: []uint64{1, 2, 3}, Checksum: 4.5, Failures: 2, Rebuilds: 1}
}

func TestChecksRejectVacuousAndPerturbedOutputs(t *testing.T) {
	ref := goodSupervised()
	ref.Failures, ref.Rebuilds = 0, 0 // the failure-free reference
	cases := []struct {
		name       string
		ref, got   func() supervisedOutput
		multilevel bool
		ok         bool
	}{
		{"exact", func() supervisedOutput { return ref }, goodSupervised, false, true},
		{"exact multilevel", func() supervisedOutput { return ref }, goodSupervised, true, true},
		{"perturbed digest", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.Digests = []uint64{1, 2, 4}
			return g
		}, false, false},
		{"missing digest", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.Digests = g.Digests[:2]
			return g
		}, false, false},
		{"checksum bit", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.Checksum = 4.500000000000001
			return g
		}, false, false},
		{"no failure injected", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.Failures = 0
			return g
		}, false, false},
		{"not completed", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.Completed = false
			return g
		}, false, false},
		{"empty reference", func() supervisedOutput { return supervisedOutput{Completed: true} }, func() supervisedOutput {
			g := goodSupervised()
			g.Digests = nil
			return g
		}, false, false},
		{"L3 read", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.L3ReadBytes = 1
			return g
		}, true, false},
		{"no rebuild", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.Rebuilds = 0
			return g
		}, true, false},
		{"degraded recovery", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.Degraded = 1
			return g
		}, false, false},
		{"degraded multilevel recovery", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.Degraded = 1
			return g
		}, true, false},
		{"rebuild failure", func() supervisedOutput { return ref }, func() supervisedOutput {
			g := goodSupervised()
			g.RebuildFailures = 1
			return g
		}, true, false},
	}
	for _, c := range cases {
		err := checkSupervised(c.ref(), c.got(), c.multilevel)
		if (err == nil) != c.ok {
			t.Errorf("%s: check returned %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if checkDigests(nil, nil) == nil {
		t.Error("empty sweep reference passed")
	}
	if checkDigests([]uint64{7, 8}, []uint64{7, 9}) == nil {
		t.Error("perturbed sweep digest passed")
	}
}

// fakeRuns replays canned outcomes, in turn, through the benchmark's
// measuring loop.
type fakeRuns struct {
	outcomes []Outcome
	n        int
}

func (f *fakeRuns) Run(*Recorder) (Outcome, error) {
	o := f.outcomes[f.n%len(f.outcomes)]
	f.n++
	time.Sleep(time.Millisecond)
	return o, nil
}

func TestFailedChecksCountInFailFrac(t *testing.T) {
	ref := goodSupervised()
	perturbed := goodSupervised()
	perturbed.Digests = []uint64{1, 2, 99}
	l3 := goodSupervised()
	l3.L3ReadBytes = 4096
	fellBack := goodSupervised()
	fellBack.RebuildFailures, fellBack.Degraded = 1, 1
	outcome := func(got supervisedOutput, multilevel bool) Outcome {
		return Outcome{VirtualSeconds: 1, Counts: map[string]float64{"x": 1}, Check: checkSupervised(ref, got, multilevel)}
	}
	runs := &fakeRuns{outcomes: []Outcome{
		outcome(goodSupervised(), true),
		outcome(perturbed, false),
		outcome(l3, true),
		outcome(goodSupervised(), false),
		outcome(fellBack, true),
	}}
	def := workloadDef{name: "fake", setup: func(uint64) (Prepared, error) { return runs, nil }}
	res, err := measure(def, 1, 40*time.Millisecond, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != runs.n || runs.n < 5 {
		t.Fatalf("attempted %d, ran %d (want at least 5)", res.Attempted, runs.n)
	}
	wantFailed := 0
	for i := 0; i < runs.n; i++ {
		if i%5 == 1 || i%5 == 2 || i%5 == 4 {
			wantFailed++
		}
	}
	okFrac := res.Metrics["ok_frac"].Value
	if res.Failed != wantFailed || res.Correct || okFrac != float64(runs.n-wantFailed)/float64(runs.n) {
		t.Fatalf("failed %d correct %v ok_frac %v; want %d failed of %d", res.Failed, res.Correct, okFrac, wantFailed, runs.n)
	}
}

func TestCounterDriftFailsRun(t *testing.T) {
	base := map[string]float64{}
	if err := sameCounts(base, map[string]float64{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := sameCounts(base, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Fatalf("a new counter was rejected: %v", err)
	}
	if sameCounts(base, map[string]float64{"a": 2}) == nil {
		t.Fatal("a counter that changed between runs of one seed passed")
	}
}
