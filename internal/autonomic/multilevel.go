package autonomic

// Multi-level checkpointing (the FTI lineage): L1 keeps every rank's
// chain on its own node-local device, L2 parity-protects each committed
// line across ranks with an erasure codec placed over failure domains,
// and L3 — the existing global store — absorbs only every Nth line. The
// supervisor's recovery then walks the tiers per segment: local read,
// parity rebuild, global fetch — with per-level byte and latency
// accounting, so the ablation can show k simultaneous rank losses
// recovered without a single global-store read.

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/storage"
)

// MultiLevelOptions configures the checkpoint hierarchy of a supervised
// run. The supervisor builds a fresh redundancy.Hierarchy from these per
// Run, with Config.Store (or a fresh MemStore) as the L3 tier.
type MultiLevelOptions struct {
	// Scheme selects the L2 redundancy codec and parity-group geometry.
	Scheme redundancy.Scheme
	// Domains maps ranks to failure domains; nil defaults to singleton
	// domains (independent node failures). Must cover exactly
	// Config.Ranks ranks.
	Domains *cluster.DomainMap
	// GlobalEvery writes through to L3 every Nth line (<= 1 → every
	// line). Align with FullEvery so L3 lines are self-contained.
	GlobalEvery int
	// FullEvery is the checkpointer epoch length (0 → one full segment
	// per incarnation, deltas after).
	FullEvery int
	// CorruptParityAt lists lines whose freshly placed parity shard is
	// bit-flipped right after the encode — the injected at-rest rot that
	// must degrade the rebuild to L3, never tear a restore.
	CorruptParityAt []uint64
}

func (o MultiLevelOptions) withDefaults(ranks int) (MultiLevelOptions, error) {
	if o.GlobalEvery < 1 {
		o.GlobalEvery = 1
	}
	if o.Domains == nil {
		dm, err := cluster.NewDomainMap(ranks, 1)
		if err != nil {
			return o, err
		}
		o.Domains = dm
	}
	if o.Domains.Ranks() != ranks {
		return o, fmt.Errorf("autonomic: domain map covers %d ranks, run has %d", o.Domains.Ranks(), ranks)
	}
	return o, nil
}

// buildHierarchy constructs the run's hierarchy over the configured (or
// defaulted) L3 store.
func (s *Supervisor) buildHierarchy(global storage.Store) error {
	opts := *s.cfg.MultiLevel
	h, err := redundancy.NewHierarchy(redundancy.Config{
		Scheme:      opts.Scheme,
		Domains:     opts.Domains,
		Global:      global,
		GlobalEvery: opts.GlobalEvery,
		Net:         mpi.QsNet(),
		Direct:      s.cfg.RDMA != nil,
	})
	if err != nil {
		return err
	}
	s.ml = h
	s.mlRng = rand.New(rand.NewPCG(s.cfg.Seed, 0xEC2))
	return nil
}

// rankStore returns the checkpoint store rank i writes through: the
// hierarchy's L1(+L3 write-through) store under multi-level, the shared
// global store otherwise.
func (s *Supervisor) rankStore(i int) storage.Store {
	if s.ml != nil {
		return s.ml.RankStore(i)
	}
	return s.store
}

// protectLine runs the L2 parity encode for a freshly committed line
// during the commit pause, charges its exchange to the report, and
// resumes the computation when the exchange resolves. Encode errors
// never hurt the run — the line simply carries no L2 protection.
func (s *Supervisor) protectLine(t *team, seq uint64, cont func()) {
	rep, err := s.ml.EncodeLine(seq)
	if err != nil {
		s.report.ParityEncodeFailures++
		cont()
		return
	}
	s.report.L2ExchangeTime += rep.Time
	s.report.ParityVolumeMB += float64(rep.ParityBytes) / 1e6
	for _, at := range s.cfg.MultiLevel.CorruptParityAt {
		if at == seq {
			if _, ok := s.ml.CorruptParity(seq, s.mlRng); ok {
				s.report.InjectedParityCorruptions++
			}
		}
	}
	s.eng.After(rep.Time, func() {
		if s.cur != t || s.detecting {
			return
		}
		cont()
	})
}

// domainCrash is the chaos DSL's correlated failure: every rank of the
// named failure domain dies at once, local stores and all, mid-commit.
func (s *Supervisor) domainCrash(name string) {
	if s.report.Completed || s.failed != nil {
		return
	}
	dm := s.cfg.MultiLevel.Domains
	d, ok := dm.Index(name)
	if !ok {
		s.fail(fmt.Errorf("autonomic: domain-crash names unknown domain %q (have %d domains)", name, dm.Domains()))
		return
	}
	s.pendingVictims = append([]int(nil), dm.Members(d)...)
	s.report.DomainCrashes++
	s.onFailure()
}

// takeVictims resolves which ranks this failure event kills and wipes
// their L1 stores — the node-local device dies with the node. Under a
// domain crash the victims were preset; otherwise one seeded rank dies.
// Legacy (non-multi-level) runs return nil without consuming entropy,
// keeping their event streams bit-identical.
func (s *Supervisor) takeVictims() []int {
	if s.ml == nil {
		return nil
	}
	victims := s.pendingVictims
	s.pendingVictims = nil
	if len(victims) == 0 {
		victims = []int{s.rng.IntN(s.cfg.Ranks)}
	}
	for _, v := range victims {
		if err := s.ml.WipeRank(v); err != nil {
			s.fail(fmt.Errorf("autonomic: wiping rank %d local store: %w", v, err))
			return nil
		}
	}
	return victims
}

// foldViewStats adds one recovery view's per-level accounting to the
// report.
func (s *Supervisor) foldViewStats(view *redundancy.RecoveryView) {
	st := view.Stats()
	for i := 0; i < redundancy.LevelCount; i++ {
		s.report.LevelReadBytes[i] += st.LevelBytes[i]
	}
	s.report.ParityRebuilds += st.Rebuilds
	s.report.ParityRebuildFailures += st.RebuildFailures
	s.report.CorruptParityShards += st.CorruptShards
	s.report.ParityRepairs += st.RepairedBack
	s.report.ParityRepairFailures += st.RepairWriteFailures
}

// levelReadTime composes a tiered recovery's read time from the tier
// models each level actually served bytes from, and charges each level's
// share to the report.
func (s *Supervisor) levelReadTime(st redundancy.ViewStats) des.Time {
	models := [redundancy.LevelCount]func(uint64) des.Time{
		redundancy.LevelLocal:  storage.NVMeSink().WriteTime,
		redundancy.LevelParity: mpi.QsNet().TransferTime,
		redundancy.LevelGlobal: s.cfg.Sink.WriteTime,
	}
	var total des.Time
	for i, n := range st.LevelBytes {
		if n > 0 {
			t := models[i](n)
			s.report.LevelReadTime[i] += t
			total += t
		}
	}
	return total
}
