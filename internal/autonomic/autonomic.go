// Package autonomic closes the loop the paper opens in §1: "there is an
// inevitable need for autonomic computing systems which are able to
// self-heal and self-repair". It runs a genuinely distributed computation
// (a halo-exchanging Jacobi solve across MPI ranks) under coordinated
// incremental checkpointing, injects node failures, and recovers
// automatically — restore every rank from the last consistent line,
// rebuild the communicator, re-attach the solver, resume — until the
// computation completes. Everything happens in one deterministic
// discrete-event simulation, so the end-to-end efficiency under failures
// is *measured*, not modelled, and the final answer is verified against
// an uninterrupted run.
package autonomic

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/ckptspec"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// Computation is a distributed, resumable, stoppable iterative program —
// the contract both kernels' Dist* types satisfy.
type Computation interface {
	// Run iterates to target; onIter (optional) runs after each
	// completed iteration with a continuation; onDone at completion.
	Run(target int, onIter func(iter int, next func()), onDone func())
	// Stop abandons the computation (failure path).
	Stop()
	// Iter reports completed iterations.
	Iter() int
	// Gather returns the global solution for verification.
	Gather() ([]float64, error)
}

// Factory builds a computation fresh or re-attaches it to restored
// address spaces.
type Factory interface {
	New(eng *des.Engine, world *mpi.World) (Computation, error)
	Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error)
}

// StencilFactory supervises a halo-exchanging Jacobi solve.
type StencilFactory struct {
	Nx, RowsPerRank int
	Boundary        float64
	ComputeTime     des.Time
}

// New implements Factory.
func (f StencilFactory) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	return kernels.NewDistStencil(eng, world, f.Nx, f.RowsPerRank, f.Boundary, f.ComputeTime)
}

// Attach implements Factory.
func (f StencilFactory) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	return kernels.AttachDistStencil(eng, world, f.Nx, f.RowsPerRank, f.Boundary, f.ComputeTime, iter)
}

// WavefrontFactory supervises a pipelined transport sweep.
type WavefrontFactory struct {
	Nx, RowsPerRank int
	Seed            float64
	ComputeTime     des.Time
}

// New implements Factory.
func (f WavefrontFactory) New(eng *des.Engine, world *mpi.World) (Computation, error) {
	return kernels.NewDistWavefront(eng, world, f.Nx, f.RowsPerRank, f.Seed, f.ComputeTime)
}

// Attach implements Factory.
func (f WavefrontFactory) Attach(eng *des.Engine, world *mpi.World, iter int) (Computation, error) {
	return kernels.AttachDistWavefront(eng, world, f.Nx, f.RowsPerRank, f.Seed, f.ComputeTime, iter)
}

// Config parameterises a supervised run.
type Config struct {
	// Workload picks the computation; nil selects a StencilFactory
	// built from the grid fields below.
	Workload Factory
	// Ranks is the number of MPI processes (>= 1).
	Ranks int
	// Nx and RowsPerRank shape the decomposed grid.
	Nx, RowsPerRank int
	// Boundary is the Dirichlet boundary value.
	Boundary float64
	// Iterations is the total sweeps to complete.
	Iterations int
	// CkptEvery takes a coordinated checkpoint after every N completed
	// iterations (>= 1).
	CkptEvery int
	// ComputeTime is the virtual cost of one sweep.
	ComputeTime des.Time
	// MTBF is the *system* mean time between failures; zero disables
	// failure injection.
	MTBF des.Time
	// RestartOverhead is the fixed downtime per failure (detection,
	// reboot, re-spawn) on top of the chain-read time.
	RestartOverhead des.Time
	// Sink models stable storage (zero → SCSI).
	Sink storage.Model
	// Store overrides the stable-storage backend (nil → a fresh
	// in-memory store). Stack the hardening wrappers — per-replica
	// storage.IntegrityStore + storage.ResilientStore under a
	// storage.MirrorStore — to run the supervisor against a storage
	// tier that tears writes, rots at rest, drops requests, or dies.
	Store storage.Store
	// Seed drives failure times deterministically.
	Seed uint64

	// NetFaults, when non-nil, runs the team over a flaky interconnect:
	// per-link drop and duplication, delay jitter, and degradation
	// windows, all seeded and deterministic (see mpi.NetFaultConfig).
	NetFaults *mpi.NetFaultConfig
	// HeartbeatPeriod, when > 0 (and Ranks > 1), runs a gossip-style
	// heartbeat failure detector over the (possibly flaky) interconnect.
	// Failures are then *detected* rather than observed instantly: the
	// measured detection latency of each failure is added to its
	// downtime and recorded in the report. With the detector off, the
	// supervisor notices failures immediately — the paper's idealised
	// constant-overhead assumption. A peer is declared dead after four
	// periods of heartbeat silence.
	HeartbeatPeriod des.Time
	// Engine, when non-nil, hosts the run on an existing (fresh, clock
	// at zero) engine instead of a private one. Chaos wiring needs this:
	// a chaos.Driver binds to an engine before Run, so the driver's
	// timed storage faults, bit-flip instants and crash schedule share
	// the run's virtual clock.
	Engine *des.Engine
	// Chaos, when non-nil, drives deterministic scheduled failures from
	// a compiled fault plan bound to Engine: node crashes at planned
	// instants, crashes aimed inside checkpoint commit windows, and — via
	// the driver's MergeNetFaults, applied automatically — planned
	// network partitions and brownouts. Storage-layer chaos (outages,
	// brownouts, bit flips) rides the store the caller wrapped with
	// Driver.WrapStore. Chaos composes with MTBF: most chaos runs set
	// MTBF to zero so the plan is the sole failure source.
	Chaos *chaos.Driver
	// TwoPhaseCommit switches coordinated checkpoints to the
	// prepare/commit protocol: ranks write segments in the prepare
	// phase and a per-line COMMIT marker is written only after every
	// rank's sink write acks. Recovery then trusts only committed
	// lines, so a mid-checkpoint failure can never surface a line the
	// key space merely advertises.
	TwoPhaseCommit bool
	// RDMA, when non-nil, runs the team over an OS-bypass interconnect
	// (mpi.Direct with registered memory regions): one-sided NIC writes
	// land without raising tracker faults. Mode selects naive
	// checkpointing (measure the silent under-count) or the drain
	// protocol (close it). See RDMAOptions.
	RDMA *RDMAOptions
	// Spec, when non-nil, applies a protection-region spec to every
	// rank's checkpointer: regions the ckptset analyzer classified as
	// recomputable are excluded from protection and capture (the
	// restore recreates them zero-filled), and their recompute hooks
	// run on every re-attach before the team resumes. The workload
	// must implement SpecBound to participate; others run unchanged.
	Spec *ckptspec.Spec
	// MultiLevel, when non-nil, runs the checkpoint hierarchy: ranks
	// commit to rank-local L1 stores, every committed line is parity-
	// protected across ranks by the configured erasure scheme (L2), and
	// the global store (Store/Sink above) becomes the L3 tier written
	// only every GlobalEvery lines. Failures wipe the victims' L1
	// stores; recovery reads through the tiers — L1, L2 rebuild, L3 —
	// with per-level accounting in the report. The chaos DSL's
	// domain-crash fault kills whole failure domains at once. Under
	// TwoPhaseCommit the COMMIT markers go to the global store, only
	// marker-committed lines are parity-protected, and recovery's marker
	// reads count as L3 bytes.
	MultiLevel *MultiLevelOptions
}

// SpecBound is the optional Computation extension that ties a rank's
// live arenas to protection-spec names. kernels' Dist* types and the
// solo adapter implement it.
type SpecBound interface {
	ProtectionBindings(rank int) []ckptspec.Binding
}

const (
	// maxFailures aborts pathological runs.
	maxFailures = 1000
	// heartbeatTimeoutPeriods is the heartbeat silence, in periods,
	// after which the failure detector declares a peer dead.
	heartbeatTimeoutPeriods = 4
)

func (c Config) withDefaults() Config {
	if c.Nx == 0 {
		c.Nx = 64
	}
	if c.RowsPerRank == 0 {
		c.RowsPerRank = 16
	}
	if c.Ranks == 0 {
		c.Ranks = 4
	}
	if c.Iterations == 0 {
		c.Iterations = 50
	}
	if c.CkptEvery == 0 {
		c.CkptEvery = 5
	}
	if c.ComputeTime == 0 {
		c.ComputeTime = 100 * des.Millisecond
	}
	if c.RestartOverhead == 0 {
		c.RestartOverhead = 2 * des.Second
	}
	if c.Sink == (storage.Model{}) {
		c.Sink = storage.SCSISink()
	}
	if c.Workload == nil {
		c.Workload = StencilFactory{
			Nx: c.Nx, RowsPerRank: c.RowsPerRank,
			Boundary: c.Boundary, ComputeTime: c.ComputeTime,
		}
	}
	if c.RDMA != nil {
		opts := c.RDMA.withDefaults()
		c.RDMA = &opts
	}
	return c
}

// ErrUnsupported reports a Config combination the supervisor cannot
// honour — a chaos fault kind whose target the run does not have. It is
// returned up front by Run, never mid-run.
var ErrUnsupported = errors.New("autonomic: unsupported configuration")

func (c Config) validate() error {
	switch {
	case c.Ranks < 1:
		return fmt.Errorf("autonomic: ranks %d", c.Ranks)
	case c.Nx < 3 || c.RowsPerRank < 1:
		return fmt.Errorf("autonomic: grid %dx%d", c.Nx, c.RowsPerRank)
	case c.Iterations < 1 || c.CkptEvery < 1:
		return fmt.Errorf("autonomic: iterations %d / ckpt every %d", c.Iterations, c.CkptEvery)
	case c.Chaos != nil && len(c.Chaos.Plan().DomainCrashes) > 0 && c.MultiLevel == nil:
		return fmt.Errorf("autonomic: domain-crash faults need MultiLevel failure domains: %w", ErrUnsupported)
	case c.Chaos != nil && len(c.Chaos.Plan().DrainCrashes) > 0 && (c.RDMA == nil || c.RDMA.Mode != RDMADrain):
		return fmt.Errorf("autonomic: crash-during-drain faults need the RDMA drain protocol: %w", ErrUnsupported)
	}
	return nil
}

// FailureEvent is the per-failure lost-work record: when the failure
// struck, what it cost, and where recovery landed. The chaos
// equivalence validator asserts every injected failure carries non-zero
// accounting — lost iterations, downtime, or wasted checkpoint lines.
type FailureEvent struct {
	// At is the virtual time the failure struck.
	At des.Time
	// Iter is the completed-iteration count at the failure instant.
	Iter int
	// DuringCommit reports that a two-phase commit round was in flight
	// when the failure struck (the torn-line window).
	DuringCommit bool
	// RestoredIter is the iteration of the line recovery restored to
	// (0 for a scratch restart).
	RestoredIter int
	// LostIterations is Iter - RestoredIter: the work that must be
	// replayed. For nested failures absorbed by one recovery, each
	// event records its own distance to the common restored line.
	LostIterations int
	// WastedCheckpoints counts committed lines newer than the restored
	// line at recovery time: checkpoints whose cost bought nothing
	// because the failure forced a rollback past them. Each line is
	// charged to at most one failure. Recorded on the batch's first
	// event.
	WastedCheckpoints int
	// Downtime is the virtual time from the failure to the rebuilt
	// team resuming — detection, selection, chain read, respawn.
	Downtime des.Time
}

// Report summarises a supervised run.
type Report struct {
	Completed  bool
	Iterations int
	// Failures injected and recoveries performed (equal on success).
	Failures, Recoveries int
	// DegradedRecoveries counts recoveries that could not use the
	// newest consistent line — its segments were torn, corrupt or
	// unreadable — and fell back to an earlier verified line (or to a
	// scratch restart when no line survived verification).
	DegradedRecoveries int
	// CheckpointFailures counts coordinated checkpoints the storage
	// tier refused; the run continues without that line and the next
	// checkpoint re-bases a fresh chain.
	CheckpointFailures int
	// AbortedCommits counts two-phase rounds rolled back *after* a
	// successful prepare — a rank death inside the commit window or a
	// refused COMMIT-marker write. Distinct from CheckpointFailures
	// (prepare-phase storage refusals): an aborted commit had already
	// paid the sink writes and deleted them.
	AbortedCommits int
	// DetectionLatencies holds, per heartbeat-detected failure, the
	// measured virtual time between the death and a survivor declaring
	// it — a distribution, because heartbeat loss on a flaky network
	// stretches individual detections past the timeout.
	DetectionLatencies []des.Time
	// FalseSuspicions counts heartbeat silences that crossed the
	// timeout for a peer that was in fact alive (loss-induced).
	FalseSuspicions int
	// LostIterations is the work rolled back across all failures.
	LostIterations int
	// Elapsed is the end-to-end virtual time; Ideal is the failure- and
	// checkpoint-free compute time; Efficiency = Ideal/Elapsed.
	Elapsed, Ideal des.Time
	Efficiency     float64
	// CheckpointVolumeMB is the total page payload persisted.
	CheckpointVolumeMB float64
	// CommitTime is the cumulative stop-and-copy pause.
	CommitTime des.Time
	// CommittedLines counts coordinated checkpoint lines the run
	// recorded as trustworthy (marker-committed under two-phase).
	CommittedLines int
	// WastedCheckpoints sums FailureEvent.WastedCheckpoints: committed
	// lines that rollback invalidated before they were ever restored.
	WastedCheckpoints int
	// FailureLog holds one lost-work record per injected failure, in
	// failure order.
	FailureLog []FailureEvent
	// Checksum of the final global interior, for external verification.
	Checksum float64
	// SpaceDigests holds, per rank, a digest of the final address
	// space's checkpointable regions (communication bounce buffers
	// excluded) — the bit-identity witness the replay validator
	// compares against a failure-free run.
	SpaceDigests []uint64
	// DrainRounds counts executions of the checkpoint-time RDMA drain
	// protocol; DrainPhaseTime breaks their cumulative cost down per
	// phase (indexed by mpi.DrainPhase); DrainTimeouts counts ranks the
	// DrainInFlight deadline stranded into bounce-buffer degradation.
	DrainRounds    int
	DrainPhaseTime [mpi.NumDrainPhases]des.Time
	DrainTimeouts  int
	// RegistrationTime is the cumulative team-startup NIC memory-
	// registration cost (initial and after every respawn).
	RegistrationTime des.Time
	// DirectBypassBytes counts NIC bytes that landed via DMA without
	// tracker faults, summed over every team incarnation;
	// SilentDirtyBytes is the portion that hit protected pages — the
	// ground-truth IWS under-count. Under the drain protocol the silent
	// set is reconciled before every line; under naive Direct it is the
	// corruption the restore path inherits.
	DirectBypassBytes uint64
	SilentDirtyBytes  uint64
	// CheckpointSilentBytes sums the per-checkpoint corruption risk
	// (ckpt.Result.SilentDirtyBytes) over every line the run cut — the
	// under-count actually baked into the stored chain. The drain
	// protocol reconciles the silent set before every line, holding
	// this at zero; naive Direct does not.
	CheckpointSilentBytes uint64
	// Multi-level checkpointing (Config.MultiLevel). DomainCrashes
	// counts correlated whole-domain failures the chaos plan injected;
	// ParityEncodeFailures, lines left without L2 protection because
	// the parity exchange failed; InjectedParityCorruptions, parity
	// shards the chaos schedule bit-flipped at rest.
	DomainCrashes             int
	ParityEncodeFailures      int
	InjectedParityCorruptions int
	// ParityVolumeMB is the parity payload exchanged between partners;
	// L2ExchangeTime its cumulative link cost (part of the commit
	// pause under multi-level).
	ParityVolumeMB float64
	L2ExchangeTime des.Time
	// LevelReadBytes/LevelReadTime break every recovery's reads down by
	// tier (indexed by redundancy.LevelLocal/LevelParity/LevelGlobal) —
	// the per-level accounting the A21 ablation plots. A recovery that
	// never touches LevelGlobal restored entirely from local chains and
	// partner parity.
	LevelReadBytes [redundancy.LevelCount]uint64
	LevelReadTime  [redundancy.LevelCount]des.Time
	// ParityRebuilds counts segments reconstructed from surviving
	// shards; ParityRebuildFailures, rebuild attempts that fell through
	// to L3; CorruptParityShards, shards the frame CRC rejected;
	// ParityRepairs/ParityRepairFailures, read-repair write-backs of
	// rebuilt segments onto the owner's L1 (and the best-effort misses).
	ParityRebuilds        uint64
	ParityRebuildFailures uint64
	CorruptParityShards   uint64
	ParityRepairs         uint64
	ParityRepairFailures  uint64
}

// MeanDetectionLatency averages the measured detection latencies
// (0 when no failure was heartbeat-detected).
func (r *Report) MeanDetectionLatency() des.Time {
	if len(r.DetectionLatencies) == 0 {
		return 0
	}
	var sum des.Time
	for _, l := range r.DetectionLatencies {
		sum += l
	}
	return sum / des.Time(len(r.DetectionLatencies))
}

// MaxDetectionLatency returns the slowest measured detection.
func (r *Report) MaxDetectionLatency() des.Time {
	var max des.Time
	for _, l := range r.DetectionLatencies {
		if l > max {
			max = l
		}
	}
	return max
}

// team is one incarnation of the computation (between failures).
type team struct {
	world *mpi.World
	d     Computation
	cps   []*ckpt.Checkpointer
	co    *ckpt.Coordinator
	det   *cluster.Detector // nil unless HeartbeatPeriod > 0 and Ranks > 1

	regCost   des.Time // NIC registration latency paid before iterating
	harvested bool     // RDMA counters already folded into the report
}

// Supervisor drives a run to completion through failures.
type Supervisor struct {
	cfg   Config
	eng   *des.Engine
	store storage.Store
	rng   *rand.Rand

	cur        *team
	lineIter   map[uint64]int  // committed line seq → iteration it captured
	wastedSeqs map[uint64]bool // line seqs already charged as wasted to some failure
	nextSeq    uint64
	report     Report
	failed     error

	// Multi-level checkpointing state (nil/unused without
	// Config.MultiLevel). mlRng is a dedicated stream for parity-
	// corruption injection so the failure rng's draw sequence stays
	// bit-identical to legacy runs. pendingVictims is the rank set a
	// domain crash preloaded for the next failure event.
	ml             *redundancy.Hierarchy
	mlRng          *rand.Rand
	pendingVictims []int

	// Failure/recovery state machine. Failures are re-armed from the
	// failure instant, so a second failure can land while detection or
	// recovery of the first is still in progress (nested failures).
	detecting       bool      // a heartbeat detection round is running
	pendingRecovery des.Event // the in-flight respawn, cancellable
	pendingFailIter int       // iteration count at the failure being recovered
	pendingDegraded bool      // the in-flight recovery fell short of the claimed line
	unrecovered     int       // failures absorbed since the last completed recovery
}

// Run executes the configured computation under supervision and returns
// the report. The final checksum is filled in on success.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MultiLevel != nil {
		opts, err := cfg.MultiLevel.withDefaults(cfg.Ranks)
		if err != nil {
			return nil, err
		}
		cfg.MultiLevel = &opts
	}
	store := cfg.Store
	if store == nil {
		store = storage.NewMemStore()
	}
	eng := cfg.Engine
	if eng == nil {
		eng = des.NewEngine()
	}
	if cfg.Chaos != nil {
		// Fold the plan's partition/brownout windows into the interconnect
		// fault config every team incarnation is built with.
		cfg.NetFaults = cfg.Chaos.MergeNetFaults(cfg.NetFaults)
	}
	s := &Supervisor{
		cfg:        cfg,
		eng:        eng,
		store:      store,
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0xA57)),
		lineIter:   make(map[uint64]int),
		wastedSeqs: make(map[uint64]bool),
	}
	if cfg.MultiLevel != nil {
		if err := s.buildHierarchy(store); err != nil {
			return nil, err
		}
	}
	t, err := s.buildTeam(nil, 0)
	if err != nil {
		return nil, err
	}
	s.cur = t
	s.startTeam()
	s.scheduleFailure()
	if cfg.Chaos != nil {
		cfg.Chaos.StartCrashes(s.onFailure)
	}
	s.eng.Run(des.MaxTime)
	if s.failed != nil {
		return nil, s.failed
	}
	s.report.Elapsed = s.eng.Now()
	s.report.Ideal = des.Time(cfg.Iterations) * cfg.ComputeTime
	if s.report.Elapsed > 0 {
		s.report.Efficiency = s.report.Ideal.Seconds() / s.report.Elapsed.Seconds()
	}
	return &s.report, nil
}

// buildTeam constructs a new world/solver/checkpointer incarnation.
// spaces is nil for a fresh start, or the restored address spaces after a
// failure; startIter is the iteration count the state corresponds to.
func (s *Supervisor) buildTeam(spaces []*mem.AddressSpace, startIter int) (*team, error) {
	cfg := s.cfg
	fresh := spaces == nil
	if fresh {
		spaces = make([]*mem.AddressSpace, cfg.Ranks)
		for i := range spaces {
			spaces[i] = mem.NewAddressSpace(mem.Config{PageSize: 4096})
		}
	}
	mode := mpi.Bounce
	if cfg.RDMA != nil {
		mode = mpi.Direct
	}
	world, err := mpi.NewWorld(s.eng, mpi.QsNet(), mode, spaces)
	if err != nil {
		return nil, err
	}
	if cfg.RDMA != nil {
		// Before the workload maps its arenas: the bounce fallback arenas
		// must exist before checkpointer exclusion below.
		if err := world.EnableRDMA(cfg.RDMA.NIC); err != nil {
			return nil, err
		}
	}
	if cfg.NetFaults != nil {
		if err := world.SetFaults(*cfg.NetFaults); err != nil {
			return nil, err
		}
	}
	var d Computation
	if fresh {
		d, err = cfg.Workload.New(s.eng, world)
	} else {
		d, err = cfg.Workload.Attach(s.eng, world, startIter)
	}
	if err != nil {
		return nil, err
	}
	t := &team{world: world, d: d}
	if cfg.RDMA != nil {
		// The workload's arenas exist now; pin them with the NIC.
		registerRDMA(t)
	}
	for i := 0; i < cfg.Ranks; i++ {
		opts := ckpt.Options{
			Rank:     i,
			Store:    s.rankStore(i),
			Sink:     cfg.Sink,
			StartSeq: s.nextSeq,
		}
		if cfg.MultiLevel != nil {
			// Under multi-level the commit pause is a *local* device
			// write: ranks persist to their own L1, not the shared sink.
			opts.Sink = storage.NVMeSink()
			opts.FullEvery = cfg.MultiLevel.FullEvery
		}
		c, err := ckpt.NewCheckpointer(s.eng, spaces[i], opts)
		if err != nil {
			return nil, err
		}
		c.Exclude(world.BounceRegion(i))
		if cfg.Spec != nil {
			if sb, ok := d.(SpecBound); ok {
				excluded := c.ApplySpec(cfg.Spec, sb.ProtectionBindings(i))
				if !fresh {
					// The restore recreated excluded arenas zero-filled;
					// rebuild derivable contents before iterating resumes.
					for _, b := range excluded {
						if b.Recompute == nil {
							continue
						}
						if err := b.Recompute(); err != nil {
							return nil, fmt.Errorf("autonomic: recompute %s: %w", b.Name, err)
						}
					}
				}
			}
		}
		c.Start()
		t.cps = append(t.cps, c)
	}
	t.co, err = ckpt.NewCoordinator(s.eng, t.cps)
	if err != nil {
		return nil, err
	}
	if cfg.HeartbeatPeriod > 0 && cfg.Ranks > 1 {
		t.det, err = cluster.NewDetector(s.eng, world, cluster.DetectorConfig{
			Period:  cfg.HeartbeatPeriod,
			Timeout: heartbeatTimeoutPeriods * cfg.HeartbeatPeriod,
		})
		if err != nil {
			return nil, err
		}
		t.det.OnDeath = func(d cluster.Detection) { s.onDetected(t, d) }
		t.det.Start()
	}
	return t, nil
}

// startTeam begins (or resumes) iterating the current team. A
// registered-memory team first pays its NIC registration latency.
func (s *Supervisor) startTeam() {
	t := s.cur
	run := func() {
		t.d.Run(s.cfg.Iterations, func(iter int, next func()) {
			if iter%s.cfg.CkptEvery != 0 && iter != s.cfg.Iterations {
				next()
				return
			}
			// Quiescent point: coordinated checkpoint, then pause for the
			// stop-and-copy commit before resuming. A drain-mode RDMA team
			// wraps the commit in the drain/re-register protocol.
			if s.cfg.RDMA != nil && s.cfg.RDMA.Mode == RDMADrain {
				s.drainCheckpoint(t, iter, next)
				return
			}
			s.commitLine(t, iter, next)
		}, func() {
			s.finish(t)
		})
	}
	if t.regCost > 0 {
		s.report.RegistrationTime += t.regCost
		s.eng.After(t.regCost, func() {
			if s.cur != t || s.detecting {
				return
			}
			run()
		})
		return
	}
	run()
}

// commitLine runs one coordinated checkpoint line for team t at
// iteration iter and calls cont when the line's commit pause resolves.
// Every line takes the same stages in order:
//
//	capture → publish → protect (MultiLevel) → resume
//
// Capture is GlobalCheckpoint under one-phase commit, where the line is
// published at once and the pause is the slowest rank's sink write, or a
// prepare/commit round under TwoPhaseCommit, where the line is published
// only when its COMMIT marker lands on the global store. The chaos plan's
// commit-crash and domain-crash faults aim into the commit window
// [capture, pause end). A refused or aborted line leaves the computation
// unharmed: cont still runs, the run just carries on without that line.
func (s *Supervisor) commitLine(t *team, iter int, cont func()) {
	if s.cfg.TwoPhaseCommit {
		t.co.BeginTwoPhase(s.store, 2*mpi.QsNet().Latency, func(g ckpt.GlobalResult, err error) {
			if err != nil {
				s.dropLine(t, err, cont)
				return
			}
			s.publishLine(g, iter, s.eng.Now()-g.At)
			s.protectAndResume(t, g.Seq, cont)
		})
		// A prepare refused synchronously leaves no window to aim at.
		if lastAck, open := t.co.PendingLastAck(); open {
			s.aimCommitWindow(lastAck)
		}
		return
	}
	g, err := t.co.GlobalCheckpoint()
	if err != nil {
		s.dropLine(t, err, cont)
		return
	}
	s.publishLine(g, iter, g.MaxDuration)
	s.aimCommitWindow(s.eng.Now() + g.MaxDuration)
	s.eng.After(g.MaxDuration, func() { s.protectAndResume(t, g.Seq, cont) })
}

// protectAndResume runs the last two stages of line seq once its commit
// pause resolves: L2 parity under multi-level, then cont.
func (s *Supervisor) protectAndResume(t *team, seq uint64, cont func()) {
	if s.cur != t || s.detecting {
		return // a failure in the pause: the recovery path owns the future
	}
	if s.ml == nil {
		cont()
		return
	}
	s.protectLine(t, seq, cont)
}

// publishLine records a line recovery may now trust: it captured
// iteration iter and paused the computation for pause.
func (s *Supervisor) publishLine(g ckpt.GlobalResult, iter int, pause des.Time) {
	s.nextSeq = g.Seq + 1
	s.lineIter[g.Seq] = iter
	s.report.CommittedLines++
	s.report.CheckpointVolumeMB += float64(g.TotalPageBytes) / 1e6
	s.report.CommitTime += pause
}

// dropLine accounts a line that never became trustworthy — refused by
// storage, or aborted after its prepare — and, unless a rank failure
// caused it, realigns the checkpointers (ranks that persisted before the
// error are ahead of ranks after it, and consumed dirty sets force a
// full re-base) and keeps iterating without the line. The cost shows up
// as extra rollback distance if a failure lands before the next line
// commits.
func (s *Supervisor) dropLine(t *team, err error, cont func()) {
	if errors.Is(err, ckpt.ErrCommitAborted) {
		s.report.AbortedCommits++
	} else {
		s.report.CheckpointFailures++
	}
	if s.cur != t || s.detecting {
		return // aborted by a rank failure: the recovery path owns the future
	}
	s.nextSeq = t.co.Resync()
	cont()
}

// aimCommitWindow lets the chaos plan strike inside the commit window
// that opens now and closes at end: a node kill (commit-crash) or, under
// multi-level, a whole failure domain (domain-crash) — after the line's
// segments are written, before its COMMIT marker or parity placement can
// land, so the newest line is exactly as exposed as a real mid-commit
// loss would leave it.
func (s *Supervisor) aimCommitWindow(end des.Time) {
	if s.cfg.Chaos == nil {
		return
	}
	now := s.eng.Now()
	if delay, hit := s.cfg.Chaos.CommitCrashDelay(now, end); hit {
		s.eng.After(delay, s.onFailure)
	}
	if name, delay, hit := s.cfg.Chaos.DomainCrashDelay(now, end); hit {
		s.eng.After(delay, func() { s.domainCrash(name) })
	}
}

// finish completes the run: gather the verification checksum.
func (s *Supervisor) finish(t *team) {
	s.harvestRDMA(t)
	if t.det != nil {
		t.det.Stop()
		s.report.FalseSuspicions += t.det.FalseSuspicions()
	}
	vals, err := t.d.Gather()
	if err != nil {
		s.fail(err)
		return
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	s.report.Completed = true
	s.report.Iterations = t.d.Iter()
	s.report.Checksum = sum
	// Per-rank digests of the final process images, restricted to the
	// checkpoint contract: bounce buffers carry transient wire payloads
	// and stacks are excluded from checkpoints, so neither may vote on
	// replay equivalence.
	for i, c := range t.cps {
		bounce := t.world.BounceRegion(i)
		s.report.SpaceDigests = append(s.report.SpaceDigests, c.Space().Digest(func(r *mem.Region) bool {
			return r == bounce || !r.Kind().Checkpointable()
		}))
	}
	s.eng.Stop()
}

// scheduleFailure arms the next failure event.
func (s *Supervisor) scheduleFailure() {
	if s.cfg.MTBF <= 0 {
		return
	}
	delay := des.FromSeconds(s.rng.ExpFloat64() * s.cfg.MTBF.Seconds())
	if delay < des.Millisecond {
		delay = des.Millisecond
	}
	s.eng.After(delay, s.onFailure)
}

// onFailure kills a node. With the heartbeat detector off the
// supervisor observes the death instantly (the paper's idealised
// constant-overhead assumption) and schedules recovery directly; with it
// on, a random rank's tickers go silent and recovery waits for a
// survivor to declare the death. The next failure is re-armed from the
// failure instant, so failures can land during detection or recovery.
func (s *Supervisor) onFailure() {
	if s.report.Completed || s.failed != nil {
		return
	}
	if s.report.Failures >= maxFailures {
		s.fail(fmt.Errorf("autonomic: exceeded %d failures", maxFailures))
		return
	}
	s.report.Failures++
	s.unrecovered++
	s.scheduleFailure()

	// Open the failure's lost-work record now; recovery completes it.
	// During detection or an in-flight respawn the computation is already
	// stopped, so the failure lands at the iteration being recovered.
	ev := FailureEvent{At: s.eng.Now(), Iter: s.pendingFailIter}
	if s.cur != nil && !s.detecting {
		ev.Iter = s.cur.d.Iter()
		_, ev.DuringCommit = s.cur.co.PendingSeq()
	}
	s.report.FailureLog = append(s.report.FailureLog, ev)

	// Resolve the victims now, wiping their L1 stores under multi-level
	// — the node-local device dies with the node, before any detection
	// or recovery gets to look at it.
	victims := s.takeVictims()
	if s.failed != nil {
		return
	}

	if s.detecting {
		// The job is already stalled waiting on the first death to be
		// detected; this failure takes another of the survivors.
		s.killAnother(s.cur, victims)
		return
	}
	if s.cur == nil {
		// Failure during recovery: the respawn under way is lost. Redo
		// select-and-restore against the (possibly further decayed)
		// store; the spawner itself observes this one, no detection
		// round needed.
		if s.pendingRecovery.Pending() {
			s.pendingRecovery.Cancel()
			s.pendingRecovery = des.Event{}
			s.scheduleRecovery(s.pendingFailIter)
		}
		return
	}

	t := s.cur
	s.pendingFailIter = t.d.Iter()
	if t.det != nil {
		s.detecting = true
	} else {
		s.cur = nil
	}
	// A commit window open at the failure instant can never produce a
	// trusted line: the abort deletes the prepared segments and the
	// COMMIT marker is never written.
	t.co.AbortPending(fmt.Errorf("rank failure at %v", s.eng.Now()))
	// The computation is gone either way: the dead rank's halo partners
	// stall within an iteration, and the stall propagates.
	s.harvestRDMA(t)
	t.d.Stop()
	for _, c := range t.cps {
		c.Stop()
	}
	if t.det != nil {
		if len(victims) == 0 {
			victims = []int{s.rng.IntN(s.cfg.Ranks)}
		}
		for _, v := range victims {
			if live := t.det.MarkFailed(v); live == 0 {
				s.abandonDetection(t)
				return
			}
		}
		return // a survivor's timeout will fire onDetected
	}
	s.scheduleRecovery(s.pendingFailIter)
}

// killAnother fails one more live rank of a team already under
// detection (or, under multi-level, the preset victim set of a domain
// crash). Detection of the first death continues — unless nobody is
// left alive to observe anything.
func (s *Supervisor) killAnother(t *team, victims []int) {
	if len(victims) > 0 {
		for _, v := range victims {
			if t.det.Failed(v) {
				continue
			}
			if live := t.det.MarkFailed(v); live == 0 {
				s.abandonDetection(t)
				return
			}
		}
		return
	}
	start := s.rng.IntN(s.cfg.Ranks)
	for i := 0; i < s.cfg.Ranks; i++ {
		v := (start + i) % s.cfg.Ranks
		if t.det.Failed(v) {
			continue
		}
		if live := t.det.MarkFailed(v); live == 0 {
			s.abandonDetection(t)
		}
		return
	}
}

// abandonDetection handles whole-partition loss: every rank is dead, so
// no survivor can declare anything. The spawner's own liveness timeout
// stands in for peer detection, at the detector's timeout cost.
func (s *Supervisor) abandonDetection(t *team) {
	s.detecting = false
	s.cur = nil
	t.det.Stop()
	s.report.FalseSuspicions += t.det.FalseSuspicions()
	failIter := s.pendingFailIter
	s.eng.After(heartbeatTimeoutPeriods*s.cfg.HeartbeatPeriod, func() {
		if s.report.Completed || s.failed != nil || s.cur != nil || s.pendingRecovery.Pending() {
			return
		}
		s.scheduleRecovery(failIter)
	})
}

// onDetected runs when a surviving rank's heartbeat timeout declares the
// victim dead: record the measured detection latency and start recovery.
func (s *Supervisor) onDetected(t *team, d cluster.Detection) {
	if s.report.Completed || s.failed != nil || !s.detecting || s.cur != t {
		return
	}
	s.detecting = false
	s.cur = nil
	t.det.Stop()
	s.report.FalseSuspicions += t.det.FalseSuspicions()
	s.report.DetectionLatencies = append(s.report.DetectionLatencies, d.Latency())
	s.scheduleRecovery(s.pendingFailIter)
}

// claimedSeq snapshots what src *claims* is the newest line — the
// commit-marker key space under two-phase commit, the segment key space
// otherwise — before any data is touched. A recovery is degraded when
// the line it actually restores falls short of this claim.
func (s *Supervisor) claimedSeq(src storage.Store) (uint64, bool, error) {
	if !s.cfg.TwoPhaseCommit {
		return ckpt.LatestConsistentSeq(src, s.cfg.Ranks)
	}
	seqs, err := ckpt.MarkerSeqs(src)
	if err != nil || len(seqs) == 0 {
		return 0, false, err
	}
	return seqs[0], true, nil
}

// scheduleRecovery selects and restores the newest trustworthy line now
// (the store may decay further while the node respawns) and arms the
// respawn after the restart overhead plus the measured chain-read time.
// The armed event is cancellable: a nested failure redoes the selection.
// Under multi-level, recovery reads through a fresh tiered view of the
// hierarchy; otherwise it reads the global store.
func (s *Supervisor) scheduleRecovery(failIter int) {
	src := s.store
	if s.ml != nil {
		src = s.ml.NewView()
	}
	best, okBest, err := s.claimedSeq(src)
	if err != nil {
		s.fail(err)
		return
	}
	spaces, line, ok, readTime := s.selectAndRestore(src)
	if s.failed != nil {
		return
	}
	s.pendingDegraded = okBest && (!ok || line < best)
	s.pendingFailIter = failIter
	downtime := s.cfg.RestartOverhead + readTime
	s.pendingRecovery = s.eng.After(downtime, func() {
		s.pendingRecovery = des.Event{}
		s.recover(spaces, line, ok, failIter)
	})
}

// selectAndRestore finds the newest recovery line src can prove — every
// rank's chain fetched, integrity-checked and decoded — and restores it.
// Under two-phase commit only lines with a verified COMMIT marker may be
// trusted; otherwise the newest fully verifiable line wins. Verification
// races ongoing sink decay (a replica's op-countdown outage can land
// between proving a line and reading it back), so a read failure
// re-verifies against the shifted world and falls down to the next
// surviving line instead of aborting the run. Returns nil spaces when no
// line survives (scratch restart), plus the virtual time the winning
// chain read costs: the global sink's time for the chain volume, or, on
// a tiered view, each level's time for the bytes it served.
func (s *Supervisor) selectAndRestore(src storage.Store) (spaces []*mem.AddressSpace, line uint64, ok bool, readTime des.Time) {
	latest := ckpt.LatestVerifiableSeq
	if s.cfg.TwoPhaseCommit {
		latest = ckpt.LatestCommittedSeq
	}
	view, tiered := src.(*redundancy.RecoveryView)
	if tiered {
		defer s.foldViewStats(view)
	}
	for attempt := 0; attempt <= len(s.lineIter)+1; attempt++ {
		var err error
		line, ok, err = latest(src, s.cfg.Ranks)
		if err != nil {
			s.fail(err)
			return nil, 0, false, 0
		}
		if !ok {
			return nil, 0, false, 0
		}
		var chain uint64
		if !tiered {
			for r := 0; r < s.cfg.Ranks; r++ {
				v, err := ckpt.ChainVolume(src, r, line)
				if err != nil {
					chain = 0
					break
				}
				chain += v
			}
			if chain == 0 {
				continue // line decayed under us: re-verify
			}
		}
		spaces, err = ckpt.RestoreAll(src, s.cfg.Ranks, line)
		if err != nil {
			continue
		}
		if tiered {
			return spaces, line, true, s.levelReadTime(view.Stats())
		}
		return spaces, line, true, s.cfg.Sink.WriteTime(chain) // read ≈ write bandwidth
	}
	// Every candidate decayed faster than we could read it.
	return nil, 0, false, 0
}

// recover rebuilds the team around the restored spaces (nil → scratch
// restart when no verifiable checkpoint survived).
func (s *Supervisor) recover(spaces []*mem.AddressSpace, line uint64, haveLine bool, failIter int) {
	if s.report.Completed || s.failed != nil {
		return
	}
	startIter := 0
	if haveLine {
		startIter = s.lineIter[line]
	}
	s.report.LostIterations += failIter - startIter
	s.closeFailureRecords(startIter)
	t, err := s.buildTeam(spaces, startIter)
	if err != nil {
		s.fail(err)
		return
	}
	s.cur = t
	// One completed recovery covers every failure absorbed since the
	// last one (nested failures redo the same recovery), so on success
	// Recoveries == Failures still holds.
	s.report.Recoveries += s.unrecovered
	s.unrecovered = 0
	if s.pendingDegraded {
		s.report.DegradedRecoveries++
		s.pendingDegraded = false
	}
	s.startTeam()
}

// closeFailureRecords completes the lost-work record of every failure
// this recovery absorbs (the last s.unrecovered FailureLog entries):
// where recovery landed, what each failure cost, and — once per batch —
// how many committed lines the rollback wasted. A line is wasted when it
// captured an iteration past the restored point: its commit was paid but
// recovery could not (or will never) use it. Each seq is charged to at
// most one failure, and replayed work commits fresh seqs, so re-taken
// lines are never double-counted.
func (s *Supervisor) closeFailureRecords(startIter int) {
	wasted := 0
	for seq, iter := range s.lineIter {
		if iter > startIter && !s.wastedSeqs[seq] {
			s.wastedSeqs[seq] = true
			wasted++
		}
	}
	s.report.WastedCheckpoints += wasted
	n := len(s.report.FailureLog)
	batch := s.unrecovered
	if batch > n {
		batch = n
	}
	for i := n - batch; i < n; i++ {
		ev := &s.report.FailureLog[i]
		ev.RestoredIter = startIter
		ev.LostIterations = ev.Iter - startIter
		ev.Downtime = s.eng.Now() - ev.At
		if i == n-batch {
			ev.WastedCheckpoints = wasted
		}
	}
}

func (s *Supervisor) fail(err error) {
	s.failed = err
	s.eng.Stop()
}
