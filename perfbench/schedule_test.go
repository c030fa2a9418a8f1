package main

import (
	"strings"
	"testing"

	"repro/internal/chaos"
)

// generators are the seeded schedule generators with the run shapes the
// workloads use.
func generators(t *testing.T) map[string]func(seed uint64) string {
	ml, err := multiLevelConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(uint64) string{
		"service": func(seed uint64) string {
			lo, hi := faultWindow(serviceConfig(seed), serviceCrashes)
			return serviceSchedule(seed, lo, hi, serviceCrashes)
		},
		"domain": func(seed uint64) string {
			lo, hi := faultWindow(ml, domainCrashes)
			return domainSchedule(seed, lo, hi, ml.Ranks/mlDomainSize, domainCrashes)
		},
	}
}

func TestScheduleSameSeedSameText(t *testing.T) {
	for name, gen := range generators(t) {
		if a, b := gen(42), gen(42); a != b {
			t.Errorf("%s: seed 42 gave two texts:\n%s\n%s", name, a, b)
		}
	}
}

func TestScheduleSeedsDiffer(t *testing.T) {
	for name, gen := range generators(t) {
		if a, b := gen(1), gen(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same text:\n%s", name, a)
		}
	}
}

func TestScheduleParsesAndValidates(t *testing.T) {
	wantSpecs := map[string]map[chaos.Kind]int{
		"service": {chaos.CommitCrash: serviceCrashes, chaos.StorageBrownout: 1},
		"domain":  {chaos.DomainCrash: domainCrashes},
	}
	for name, gen := range generators(t) {
		for seed := uint64(0); seed < 300; seed++ {
			text := gen(seed)
			sched, err := chaos.ParseSchedule(text)
			if err != nil {
				t.Fatalf("%s seed %d: %v\n%s", name, seed, err, text)
			}
			if err := sched.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v\n%s", name, seed, err, text)
			}
			kinds := map[chaos.Kind]int{}
			domains := map[string]bool{}
			for _, sp := range sched.Specs {
				kinds[sp.Kind]++
				if sp.Kind == chaos.DomainCrash {
					domains[sp.Domain] = true
				}
			}
			for k, n := range wantSpecs[name] {
				if kinds[k] != n {
					t.Fatalf("%s seed %d: %d %v specs, want %d\n%s", name, seed, kinds[k], k, n, text)
				}
			}
			if name == "domain" && len(domains) != domainCrashes {
				t.Fatalf("seed %d: domain crashes hit %d distinct domains, want %d\n%s", seed, len(domains), domainCrashes, text)
			}
			if _, err := sched.Compile(seed); err != nil {
				t.Fatalf("%s seed %d: compile: %v", name, seed, err)
			}
			if !strings.HasPrefix(text, "# perfbench") {
				t.Fatalf("%s seed %d: text lacks its header comment", name, seed)
			}
		}
	}
}
