package autonomic

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/storage"
)

// chaosBaseConfig is the grid the equivalence suite runs: small enough
// to keep the suite fast, slow enough (nfs-class sink, 200ms sweeps)
// that commit windows are wide targets for mid-commit kills.
func chaosBaseConfig(seed uint64) Config {
	return Config{
		Ranks: 4, Nx: 32, RowsPerRank: 8, Boundary: 9,
		Iterations: 40, CkptEvery: 5,
		ComputeTime:     200 * des.Millisecond,
		RestartOverhead: 500 * des.Millisecond,
		Sink:            storage.Model{Name: "nfs-class", Latency: 5 * des.Millisecond, Bandwidth: 2e4},
		Seed:            seed,
	}
}

// chaosSchedules are the fault scenarios the acceptance criteria name:
// plain crashes, crashes aimed inside commit windows, a network
// partition with a correlated crash plus a storage brownout, and silent
// bit flips with a crash to force recovery through the corrupted store.
var chaosSchedules = []struct {
	name     string
	text     string
	twoPhase bool
}{
	{"crash", "crash at 1500ms..6s count 2 jitter 400ms", false},
	{"commit-crash", "commit-crash at 1s..30s count 2", true},
	{"partition-brownout",
		"partition at 2s..4s drop 0.9 group a\n" +
			"crash at 2s..4s group a\n" +
			"storage-brownout at 5s..7s rate 0.4",
		false},
	{"bitflip", "bitflip at 2s..9s count 4\ncrash at 3s..8s count 1", false},
	// Under one-phase commit the kill lands in the stop-and-copy pause.
	{"commit-crash-one-phase", "commit-crash at 1s..30s count 2", false},
}

var chaosSeeds = []uint64{3, 5, 9}

// TestChaosReplayEquivalence is the issue's acceptance test: for every
// seed × schedule, the run torn apart by the chaos plan and stitched
// back together by restore-and-replay must finish in the bit-identical
// final state — per-rank address-space digests and solution checksum —
// of a failure-free run of the same seed, with non-zero lost-work
// accounting attached to every injected failure.
func TestChaosReplayEquivalence(t *testing.T) {
	for _, sc := range chaosSchedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			sched, err := chaos.ParseSchedule(sc.text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, seed := range chaosSeeds {
				cfg := chaosBaseConfig(seed)
				cfg.TwoPhaseCommit = sc.twoPhase
				out, err := ValidateReplay(cfg, sched)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				rep := out.Injected
				if !rep.Completed {
					t.Fatalf("seed %d: injected run did not complete", seed)
				}
				if rep.Failures == 0 {
					t.Fatalf("seed %d: chaos plan injected no failures — test proves nothing", seed)
				}
				if !out.ChecksumMatch {
					t.Errorf("seed %d: checksum %v != reference %v",
						seed, rep.Checksum, out.Reference.Checksum)
				}
				if !out.DigestsMatch {
					t.Errorf("seed %d: final address-space digests diverge: %x vs %x",
						seed, rep.SpaceDigests, out.Reference.SpaceDigests)
				}
				if len(rep.FailureLog) != rep.Failures {
					t.Fatalf("seed %d: %d failures but %d log entries",
						seed, rep.Failures, len(rep.FailureLog))
				}
				for i, ev := range rep.FailureLog {
					// Every failure must cost something measurable: replayed
					// iterations, downtime, or a wasted checkpoint line.
					if ev.LostIterations == 0 && ev.Downtime == 0 && ev.WastedCheckpoints == 0 {
						t.Errorf("seed %d: failure %d at %v has zero lost-work accounting", seed, i, ev.At)
					}
					if ev.Downtime <= 0 {
						t.Errorf("seed %d: failure %d downtime %v, want > 0", seed, i, ev.Downtime)
					}
					if ev.LostIterations != ev.Iter-ev.RestoredIter {
						t.Errorf("seed %d: failure %d lost %d != iter %d - restored %d",
							seed, i, ev.LostIterations, ev.Iter, ev.RestoredIter)
					}
				}
			}
		})
	}
}

// TestChaosCommitCrash pins the mid-commit kill path: the driver aims a
// crash strictly inside a two-phase prepare→commit window, the torn
// round aborts (no COMMIT marker, segments deleted), and recovery falls
// back to the previous committed line — yet the replay still converges
// to the bit-exact reference.
func TestChaosCommitCrash(t *testing.T) {
	sched, err := chaos.ParseSchedule("commit-crash at 1s..30s count 2")
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, seed := range chaosSeeds {
		cfg := chaosBaseConfig(seed)
		cfg.TwoPhaseCommit = true
		out, err := ValidateReplay(cfg, sched)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Stats.CommitCrashes == 0 {
			continue
		}
		hit = true
		rep := out.Injected
		if rep.AbortedCommits == 0 {
			t.Errorf("seed %d: %d commit crashes but no aborted commits", seed, out.Stats.CommitCrashes)
		}
		var during int
		for _, ev := range rep.FailureLog {
			if ev.DuringCommit {
				during++
			}
		}
		if during == 0 {
			t.Errorf("seed %d: no failure recorded as during-commit", seed)
		}
		if !out.BitExact() {
			t.Errorf("seed %d: commit-crash replay not bit-exact", seed)
		}
	}
	if !hit {
		t.Fatal("no seed produced a mid-commit kill — widen the schedule window")
	}
}

// TestChaosBitFlipDegradesRecovery pins the silent-corruption path: bit
// flips land below the integrity envelope, so recovery's verification
// pass rejects the damaged line and falls back — a degraded recovery —
// while the final state stays bit-exact.
func TestChaosBitFlipDegradesRecovery(t *testing.T) {
	sched, err := chaos.ParseSchedule(
		"bitflip at 2s..9s count 6\ncrash at 9s..10s count 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds {
		out, err := ValidateReplay(chaosBaseConfig(seed), sched)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Stats.BitFlips == 0 {
			t.Errorf("seed %d: no stored bit flipped — schedule window misses the store's lifetime", seed)
		}
		if out.Injected.DegradedRecoveries == 0 {
			t.Errorf("seed %d: flips never forced a degraded recovery", seed)
		}
		if !out.BitExact() {
			t.Errorf("seed %d: bit-flip replay not bit-exact", seed)
		}
	}
}

// TestChaosDeterminism pins the engine's own contract: the same seed and
// schedule must produce byte-for-byte identical reports — same failure
// instants, same recovery landings, same digests.
func TestChaosDeterminism(t *testing.T) {
	sched, err := chaos.ParseSchedule(chaosSchedules[2].text)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *ReplayOutcome {
		out, err := ValidateReplay(chaosBaseConfig(7), sched)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Injected.Failures != b.Injected.Failures ||
		a.Injected.Elapsed != b.Injected.Elapsed ||
		a.Injected.Checksum != b.Injected.Checksum {
		t.Fatalf("same seed, different runs: %+v vs %+v", a.Injected, b.Injected)
	}
	for i := range a.Injected.FailureLog {
		if a.Injected.FailureLog[i] != b.Injected.FailureLog[i] {
			t.Fatalf("failure %d diverges: %+v vs %+v",
				i, a.Injected.FailureLog[i], b.Injected.FailureLog[i])
		}
	}
}

// A chaos fault kind whose target the run does not have is rejected up
// front with ErrUnsupported instead of being silently dropped: a
// domain-crash needs multi-level failure domains, a crash-during-drain
// needs the RDMA drain protocol.
func TestChaosUnsupportedFaultKinds(t *testing.T) {
	for name, text := range map[string]string{
		"domain-crash without MultiLevel":  "domain-crash at 1s..30s domain d0",
		"crash-during-drain without drain": "crash-during-drain at 0s..60s phase quiesce",
	} {
		t.Run(name, func(t *testing.T) {
			sched, err := chaos.ParseSchedule(text)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ValidateReplay(chaosBaseConfig(3), sched); !errors.Is(err, ErrUnsupported) {
				t.Errorf("err = %v, want ErrUnsupported", err)
			}
		})
	}
}
