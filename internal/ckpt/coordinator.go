package ckpt

import (
	"fmt"

	"repro/internal/des"
)

// GlobalResult describes one coordinated checkpoint across all ranks.
type GlobalResult struct {
	// Seq is the line's segment sequence number, common to every rank.
	Seq uint64
	// At is the virtual time the checkpoint was triggered.
	At des.Time
	// TotalPageBytes sums the page payloads across ranks.
	TotalPageBytes uint64
	// MaxDuration is the slowest rank's sink write time — the global
	// commit latency under coordinated checkpointing.
	MaxDuration des.Time
	// PerRank holds each rank's result.
	PerRank []Result
}

// Coordinator triggers coordinated global checkpoints across a set of
// per-rank checkpointers. The paper's applications are bulk-synchronous
// (§6.2), so a coordinated checkpoint at a common virtual instant is
// consistent: in-flight message payloads are re-received after rollback
// because the model's receives are idempotent within an iteration.
type Coordinator struct {
	eng *des.Engine
	cps []*Checkpointer

	ticker  *des.Ticker
	results []GlobalResult
	// pending is the in-flight two-phase round, if any (see commit.go).
	pending *pendingCommit
}

// NewCoordinator creates a coordinator over the given checkpointers
// (one per rank, all Started by the caller).
func NewCoordinator(eng *des.Engine, cps []*Checkpointer) (*Coordinator, error) {
	if len(cps) == 0 {
		return nil, fmt.Errorf("ckpt: coordinator needs at least one checkpointer")
	}
	return &Coordinator{eng: eng, cps: cps}, nil
}

// GlobalCheckpoint checkpoints every rank at the current virtual time and
// returns the aggregate result: the one-phase commit, where the line is
// good as soon as the last rank's Put returns.
func (co *Coordinator) GlobalCheckpoint() (GlobalResult, error) {
	g, err := co.capture()
	if err != nil {
		return GlobalResult{}, err
	}
	co.results = append(co.results, g)
	return g, nil
}

// capture checkpoints every rank at the current virtual time — the one
// per-rank capture loop both commit protocols share. Ranks write through
// their own (per-node, parallel) sinks, so the line's commit latency is
// the slowest rank's write, the paper's §3 setting. On error g still
// names the line's sequence, so the caller can delete what was written.
func (co *Coordinator) capture() (GlobalResult, error) {
	g := GlobalResult{Seq: co.cps[0].Seq(), At: co.eng.Now()}
	for _, c := range co.cps {
		res, err := c.Checkpoint()
		if err != nil {
			return g, err
		}
		g.PerRank = append(g.PerRank, res)
		g.TotalPageBytes += res.PageBytes
		g.MaxDuration = max(g.MaxDuration, res.Duration)
	}
	return g, nil
}

// Resync realigns every rank after a partially failed global
// checkpoint: ranks that persisted before the failure have advanced
// their sequence, ranks after it have not, and any rank may hold a
// consumed dirty set. Resync moves all ranks to a common next sequence
// (the maximum across ranks) and forces their next checkpoint full, so
// the next global checkpoint bases a clean coordinated line. It returns
// that common sequence number.
func (co *Coordinator) Resync() uint64 {
	var next uint64
	for _, c := range co.cps {
		if c.Seq() > next {
			next = c.Seq()
		}
	}
	for _, c := range co.cps {
		c.Rebase(next)
	}
	return next
}

// StartInterval triggers a global checkpoint every interval of virtual
// time — the fixed checkpoint-timeslice policy.
func (co *Coordinator) StartInterval(interval des.Time) {
	if co.ticker != nil {
		panic("ckpt: coordinator interval already started")
	}
	co.ticker = co.eng.NewTicker(interval, func(des.Time) {
		if _, err := co.GlobalCheckpoint(); err != nil {
			panic(fmt.Sprintf("ckpt: coordinated checkpoint failed: %v", err))
		}
	})
}

// Stop cancels the interval ticker, if any.
func (co *Coordinator) Stop() {
	if co.ticker != nil {
		co.ticker.Stop()
		co.ticker = nil
	}
}

// Results returns all completed global checkpoints.
func (co *Coordinator) Results() []GlobalResult { return co.results }
