package main

import (
	"fmt"

	"repro/internal/autonomic"
	"repro/internal/chaos"
	"repro/internal/ckptstore"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// The supervised workloads run autonomic.Run under a seed-generated
// chaos schedule and check the final state bit for bit against a
// failure-free reference of the same configuration.

const (
	// serviceCrashes and domainCrashes fix the injected load per run.
	serviceCrashes = 3
	domainCrashes  = 3
	// mlDomainSize is the failure-domain width of the multi-level run.
	mlDomainSize = 2
)

// serviceConfig is the supervised-2pc-service configuration: the
// default stencil of autonomic.Config (the values its zero fields take,
// spelled out because the schedule generator needs them) under
// two-phase commit.
func serviceConfig(seed uint64) autonomic.Config {
	return autonomic.Config{
		Ranks: 4, Nx: 64, RowsPerRank: 16,
		Iterations: 50, CkptEvery: 5,
		ComputeTime:     100 * des.Millisecond,
		RestartOverhead: 2 * des.Second,
		TwoPhaseCommit:  true,
		Seed:            seed,
	}
}

// faultWindow is the virtual-time span a generated schedule spreads
// faults over. It opens once the second checkpoint line has committed,
// so every restore has a line whose redundancy is in place, and closes
// at 80% of the run's length with the faults' restarts and rollbacks
// added, so no window passes while the run is down.
func faultWindow(cfg autonomic.Config, faults int) (lo, hi des.Time) {
	interval := des.Time(cfg.CkptEvery) * cfg.ComputeTime
	length := des.Time(cfg.Iterations)*cfg.ComputeTime + des.Time(faults)*(cfg.RestartOverhead+interval)
	return 2 * interval, length * 8 / 10
}

// supervisedOutput is what a supervised run is checked on.
type supervisedOutput struct {
	Completed   bool
	Digests     []uint64
	Checksum    float64
	Failures    int
	L3ReadBytes uint64
	Rebuilds    uint64
	// RebuildFailures and Degraded count parity rebuilds that failed and
	// restores that fell back to an older line than the newest one.
	RebuildFailures uint64
	Degraded        int
}

func outputOf(rep *autonomic.Report) supervisedOutput {
	return supervisedOutput{
		Completed:       rep.Completed,
		Digests:         rep.SpaceDigests,
		Checksum:        rep.Checksum,
		Failures:        rep.Failures,
		L3ReadBytes:     rep.LevelReadBytes[redundancy.LevelGlobal],
		Rebuilds:        rep.ParityRebuilds,
		RebuildFailures: rep.ParityRebuildFailures,
		Degraded:        rep.DegradedRecoveries,
	}
}

// injection is one seeded fault scenario of a supervised workload: the
// configuration, the schedule parsed from its generated text and the
// failure-free reference output.
type injection struct {
	cfg   autonomic.Config
	sched *chaos.Schedule
	ref   supervisedOutput
}

// supervised is a prepared supervised workload. One timed run executes
// every injection in turn, so a run's cost averages over several crash
// placements instead of resting on one.
type supervised struct {
	injections []injection
	multilevel bool
}

// injectionsPerRun is how many seeded scenarios one timed run executes.
// A scenario's allocation depends on where its crashes land (by about
// 15% on the service workload); twenty of them average the placement
// out of the per-run figures, so seeds differ by about 1%.
const injectionsPerRun = 20

// prepareSupervised generates each scenario's schedule text from a
// sub-seed of seed, parses it as a user's schedule would be, and runs
// the failure-free reference.
func prepareSupervised(seed uint64, multilevel bool, gen func(sub uint64) (autonomic.Config, string, error)) (*supervised, error) {
	s := &supervised{multilevel: multilevel}
	for i := 0; i < injectionsPerRun; i++ {
		cfg, text, err := gen(mix(seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		sched, err := chaos.ParseSchedule(text)
		if err != nil {
			return nil, fmt.Errorf("generated schedule: %w", err)
		}
		rep, err := autonomic.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		s.injections = append(s.injections, injection{cfg: cfg, sched: sched, ref: outputOf(rep)})
	}
	return s, nil
}

func setupService(seed uint64) (Prepared, error) {
	return prepareSupervised(seed, false, func(sub uint64) (autonomic.Config, string, error) {
		cfg := serviceConfig(sub)
		lo, hi := faultWindow(cfg, serviceCrashes)
		return cfg, serviceSchedule(sub, lo, hi, serviceCrashes), nil
	})
}

// multiLevelConfig is the multilevel-rs-recovery configuration: the
// "rs 2+2", domain size 2, checkpoint-every-5 cell of the A21 ablation
// (experiments.MultiLevelAblation). L3 is parked, so every restore must
// come from L1 and parity rebuilds.
func multiLevelConfig(seed uint64) (autonomic.Config, error) {
	cfg := autonomic.Config{
		Ranks: 8, Nx: 32, RowsPerRank: 8, Boundary: 9,
		Iterations: 40, CkptEvery: 5,
		ComputeTime:     200 * des.Millisecond,
		RestartOverhead: 500 * des.Millisecond,
		Seed:            seed,
	}
	domains, err := cluster.NewDomainMap(cfg.Ranks, mlDomainSize)
	if err != nil {
		return cfg, err
	}
	cfg.MultiLevel = &autonomic.MultiLevelOptions{
		Scheme:      redundancy.Scheme{Kind: redundancy.RS, K: 2, M: 2},
		Domains:     domains,
		GlobalEvery: 1 << 20,
	}
	return cfg, nil
}

func setupMultiLevel(seed uint64) (Prepared, error) {
	return prepareSupervised(seed, true, func(sub uint64) (autonomic.Config, string, error) {
		cfg, err := multiLevelConfig(sub)
		lo, hi := faultWindow(cfg, domainCrashes)
		return cfg, domainSchedule(sub, lo, hi, cfg.Ranks/mlDomainSize, domainCrashes), err
	})
}

// stack is one injected run's storage, with the timing wrappers the
// traced mode installs (nil when untraced).
type stack struct {
	eng      *des.Engine
	svc      *ckptstore.Service
	retry    *storage.ResilientStore
	client   *TimingStore
	backends []*TimingStore
}

// timed wraps s in a TimingStore when rec is non-nil and remembers it.
func timed(s storage.Store, layer string, rec *Recorder, into *[]*TimingStore) storage.Store {
	if rec == nil {
		return s
	}
	t := NewTimingStore(s, layer, rec)
	*into = append(*into, t)
	return t
}

// buildService assembles the global store of the 2PC workload: a
// 3-replica checkpoint-store service whose replicas are IntegrityStores
// over MemStores, the second one inside the chaos driver's storage
// faults, reached through the standard retry layer.
func buildService(eng *des.Engine, drv *chaos.Driver, rec *Recorder) (*stack, error) {
	st := &stack{}
	replicas := make([]storage.Store, 3)
	for i := range replicas {
		var r storage.Store = storage.NewIntegrityStore(storage.NewMemStore())
		if i == 1 {
			r = drv.WrapStore(r)
		}
		replicas[i] = timed(r, "storage", rec, &st.backends)
	}
	svc, err := ckptstore.New(ckptstore.Config{
		Engine:         eng,
		Replicas:       replicas,
		InFlightBudget: 1 << 30,
		ClientShare:    1.0,
		SpillCapacity:  1 << 30,
		PromotionTime:  300 * des.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	st.svc = svc
	var client storage.Store = svc.Client(0)
	if rec != nil {
		st.client = NewTimingStore(client, "ckptstore", rec)
		client = st.client
	}
	st.retry = storage.NewResilientStore(client, storage.RetryPolicy{
		MaxAttempts: 8, BaseDelay: des.Millisecond, MaxDelay: 100 * des.Millisecond,
		Deadline: des.Second, Seed: 11,
	})
	return st, nil
}

// Run executes every injection and checks each against its reference.
func (s *supervised) Run(rec *Recorder) (Outcome, error) {
	out := Outcome{Counts: map[string]float64{}}
	for _, in := range s.injections {
		rep, st, cs, err := in.run(rec, s.multilevel)
		if err != nil {
			return out, err
		}
		out.VirtualSeconds += rep.Elapsed.Seconds()
		if err := checkSupervised(in.ref, outputOf(rep), s.multilevel); err != nil && out.Check == nil {
			out.Check = fmt.Errorf("seed %d: %w", in.cfg.Seed, err)
		}
		reportCounts(out.Counts, rep, cs, st)
		if rec != nil {
			st.traced(&out)
		}
	}
	if n := out.Counts["autonomic.recoveries"]; rec != nil && n > 0 {
		out.Counts["storage.read_MB_per_recovery"] = out.Counts["storage.get_MB"] / n
	}
	return out, nil
}

// run compiles the schedule for the scenario's seed, binds a chaos
// driver to a fresh engine, builds the storage stack and supervises the
// computation to completion.
func (in injection) run(rec *Recorder, multilevel bool) (*autonomic.Report, *stack, chaos.Stats, error) {
	span := rec.Begin("chaos.compile")
	plan, err := in.sched.Compile(in.cfg.Seed)
	rec.End(span)
	if err != nil {
		return nil, nil, chaos.Stats{}, err
	}
	eng := des.NewEngine()
	drv := chaos.NewDriver(eng, plan)
	cfg := in.cfg
	cfg.Engine, cfg.Chaos = eng, drv
	st := &stack{}
	if multilevel {
		cfg.Store = timed(storage.NewMemStore(), "storage", rec, &st.backends)
	} else {
		if st, err = buildService(eng, drv, rec); err != nil {
			return nil, nil, chaos.Stats{}, err
		}
		cfg.Store = st.retry
	}
	st.eng = eng

	span = rec.Begin("autonomic.run")
	rep, err := autonomic.Run(cfg)
	rec.End(span)
	return rep, st, drv.Stats(), err
}

// traced records what only the timing wrappers see: bytes and errors at
// the storage backends and per-call latency at the service client.
func (st *stack) traced(out *Outcome) {
	for _, b := range st.backends {
		out.Counts["storage.put_MB"] += float64(b.Puts.Bytes) / 1e6
		out.Counts["storage.get_MB"] += float64(b.Gets.Bytes) / 1e6
		out.Counts["storage.errors"] += float64(b.Errors())
	}
	if st.client != nil {
		out.PutLatencies = append(out.PutLatencies, st.client.Puts.Latencies...)
		out.GetLatencies = append(out.GetLatencies, st.client.Gets.Latencies...)
	}
}

// reportCounts adds one injected run's deterministic per-layer counters.
func reportCounts(c map[string]float64, rep *autonomic.Report, cs chaos.Stats, st *stack) {
	c["des.events"] += float64(st.eng.Fired())
	c["des.crit_path_events"] += float64(st.eng.Fired())
	c["kernels.sweeps"] += float64(rep.Iterations + rep.LostIterations)
	c["autonomic.failures"] += float64(rep.Failures)
	c["autonomic.recoveries"] += float64(rep.Recoveries)
	c["autonomic.degraded_recoveries"] += float64(rep.DegradedRecoveries)
	c["autonomic.lost_iterations"] += float64(rep.LostIterations)
	c["ckpt.lines"] += float64(rep.CommittedLines)
	c["ckpt.volume_MB"] += rep.CheckpointVolumeMB
	c["ckpt.aborted_commits"] += float64(rep.AbortedCommits)
	c["ckpt.checkpoint_failures"] += float64(rep.CheckpointFailures)
	c["redundancy.parity_MB"] += rep.ParityVolumeMB
	c["redundancy.rebuilds"] += float64(rep.ParityRebuilds)
	c["redundancy.rebuild_failures"] += float64(rep.ParityRebuildFailures)
	c["redundancy.repairs"] += float64(rep.ParityRepairs)
	c["redundancy.l1_read_MB"] += float64(rep.LevelReadBytes[redundancy.LevelLocal]) / 1e6
	c["redundancy.l2_read_MB"] += float64(rep.LevelReadBytes[redundancy.LevelParity]) / 1e6
	c["redundancy.l3_read_MB"] += float64(rep.LevelReadBytes[redundancy.LevelGlobal]) / 1e6
	c["chaos.crashes"] += float64(cs.Crashes + cs.CommitCrashes)
	c["chaos.domain_crashes"] += float64(cs.DomainCrashes)
	c["chaos.brownout_drops"] += float64(cs.BrownoutDrops)
	if st.svc != nil {
		ss := st.svc.Stats()
		c["ckptstore.puts"] += float64(ss.Puts)
		c["ckptstore.gets"] += float64(ss.Gets)
		c["ckptstore.batches"] += float64(ss.Batches)
		c["ckptstore.coalesced_puts"] += float64(ss.CoalescedPuts)
		c["ckptstore.sheds"] += float64(ss.OverloadSheds + ss.FairnessSheds + ss.DeadlineRefusals)
		c["storage.retries"] += float64(st.retry.Stats().Retries)
	}
}
