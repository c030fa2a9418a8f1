package ckptstore

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Mode is the service's degradation level. The service moves down the
// ladder as replicas fail and back up as they heal and the journal
// drains; every transition is recorded so experiments can plot the
// degradation timeline.
type Mode uint8

// Degradation ladder, healthiest first.
const (
	// ModeSync: a write quorum of replicas is reachable and the journal
	// is empty — Puts are quorum-replicated before they are acked.
	ModeSync Mode = iota
	// ModeAsync: fewer than quorum replicas are reachable (or
	// replication debt is still draining): Puts land where they can and
	// the shortfall is journaled, acked before it is quorum-durable.
	ModeAsync
	// ModeSpill: no replica is reachable (or a promotion is in flight):
	// Puts are held entirely in the frontend's local spill journal.
	ModeSpill
	// ModeRefuse: the spill journal is full — the service refuses
	// writes outright until capacity returns.
	ModeRefuse
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	case ModeSpill:
		return "spill"
	case ModeRefuse:
		return "refuse"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Transition records one step on the degradation ladder.
type Transition struct {
	At       des.Time
	From, To Mode
	Reason   string
}

// Config parameterises a Service. Zero values select the documented
// defaults; the zero Config is not usable — Engine and Replicas are
// required.
type Config struct {
	// Engine is the virtual clock everything runs on. Required.
	Engine *des.Engine
	// Replicas are the replication group's stores, leader first.
	// Required, at least one.
	Replicas []storage.Store
	// Quorum is the write quorum (0 → majority of len(Replicas)).
	Quorum int
	// Link is the client↔frontend and frontend↔replica interconnect
	// model (zero → mpi.QsNet).
	Link mpi.Network
	// ReplicaModel is the per-replica persistence cost model (zero →
	// storage.SCSISink): each replica is a serial device, so queueing
	// delay emerges when offered load exceeds its bandwidth.
	ReplicaModel storage.Model
	// InFlightBudget caps admitted-but-incomplete Put bytes
	// (0 → 64 MiB). Beyond it the admission controller sheds with
	// storage.ErrOverload.
	InFlightBudget uint64
	// ClientShare caps any one client's share of InFlightBudget
	// (0 → 0.5): one hot rank cannot starve the rest.
	ClientShare float64
	// BatchWindow is how long the frontend holds a batch open to
	// coalesce Puts across clients (0 → 2 ms). Ops joining an open
	// batch pay only serialization, not another link latency.
	BatchWindow des.Time
	// OpDeadline bounds every op's modeled completion (0 → none): an
	// op that could not finish in time is refused up front with
	// storage.ErrDeadlineExceeded rather than admitted and stalled.
	OpDeadline des.Time
	// SpillCapacity bounds the local spill journal (0 → 256 MiB).
	SpillCapacity uint64
	// DrainPeriod is how often journaled replication debt is re-offered
	// to the replicas (0 → 50 ms).
	DrainPeriod des.Time
	// ProbePeriod is how often struck-out replicas are probed for
	// recovery (0 → 250 ms).
	ProbePeriod des.Time
	// PromotionTime is the failover protocol's promotion latency after
	// a leader crash (0 → 500 ms): election plus state hand-off.
	PromotionTime des.Time
}

// Stats are the service's observable counters. All byte counts are
// payload bytes, all latencies virtual time.
type Stats struct {
	Puts, Gets, Deletes uint64
	// AckedPuts/AckedBytes count Puts the service accepted (at any
	// durability level); an acked Put is never silently dropped.
	AckedPuts  uint64
	AckedBytes uint64
	// Acks by durability level at ack time.
	SyncAcks, AsyncAcks, SpillAcks uint64
	// Admission-control refusals.
	OverloadSheds    uint64
	FairnessSheds    uint64
	DeadlineRefusals uint64
	// QuorumFailures counts Puts that reached fewer than quorum
	// replicas on their first (synchronous) attempt.
	QuorumFailures uint64
	// Batching efficiency.
	Batches       uint64
	CoalescedPuts uint64
	// FailoverReads counts Gets served by a non-leader replica.
	FailoverReads uint64
	// Journal flow.
	JournaledBytes uint64
	DrainedBytes   uint64
	// Failover protocol.
	LeaderCrashes     uint64
	Failovers         uint64
	PromotionRestarts uint64
	// ModeChanges counts degradation-ladder transitions.
	ModeChanges uint64
}

// journalEntry is one unit of replication debt: a value (or tombstone)
// the frontend has acked but not yet proven quorum-durable.
type journalEntry struct {
	data []byte
	del  bool
}

// replica is the service's view of one replication-group member.
type replica struct {
	store storage.Store
	// down: excluded from writes (struck out or crashed).
	down bool
	// crashed: down until explicitly healed; probes skip it.
	crashed bool
	// strikes counts consecutive failed ops; 3 strikes → down.
	strikes int
	// applied counts ops this replica has acknowledged — the freshness
	// criterion promotion uses.
	applied uint64
	// busyUntil models the replica as a serial device: a write starting
	// now completes at max(now, busyUntil) + WriteTime.
	busyUntil des.Time
}

// Service is the checkpoint-store frontend plus its replication group.
// It is not safe for concurrent use; like every des-driven component,
// all calls happen on the single simulation strand.
type Service struct {
	cfg    Config
	eng    *des.Engine
	reps   []*replica
	leader int
	quorum int

	// Admission controller state.
	inflight  uint64
	perClient map[uint32]uint64

	// Batching: an open batch absorbs Puts until batchEnd.
	batchEnd  des.Time
	batchKeys map[string]bool

	// Spill journal: acked-but-not-quorum-durable writes, FIFO.
	journal      map[string]journalEntry
	journalOrder []string
	journalBytes uint64

	mode        Mode
	promoting   bool
	transitions []Transition

	stats   Stats
	putLats []des.Time

	drainTicker *des.Ticker
	probeTicker *des.Ticker
}

// New builds a Service from cfg, applying defaults, and starts its
// maintenance tickers on cfg.Engine.
func New(cfg Config) (*Service, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("ckptstore: Config.Engine is required")
	}
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("ckptstore: at least one replica is required")
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = len(cfg.Replicas)/2 + 1
	}
	if cfg.Quorum < 1 || cfg.Quorum > len(cfg.Replicas) {
		return nil, fmt.Errorf("ckptstore: quorum %d out of range for %d replicas", cfg.Quorum, len(cfg.Replicas))
	}
	if cfg.Link.Bandwidth == 0 {
		cfg.Link = mpi.QsNet()
	}
	if cfg.ReplicaModel.Bandwidth == 0 {
		cfg.ReplicaModel = storage.SCSISink()
	}
	if cfg.InFlightBudget == 0 {
		cfg.InFlightBudget = 64 << 20
	}
	if cfg.ClientShare == 0 {
		cfg.ClientShare = 0.5
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = 2 * des.Millisecond
	}
	if cfg.SpillCapacity == 0 {
		cfg.SpillCapacity = 256 << 20
	}
	if cfg.DrainPeriod == 0 {
		cfg.DrainPeriod = 50 * des.Millisecond
	}
	if cfg.ProbePeriod == 0 {
		cfg.ProbePeriod = 250 * des.Millisecond
	}
	if cfg.PromotionTime == 0 {
		cfg.PromotionTime = 500 * des.Millisecond
	}
	s := &Service{
		cfg:       cfg,
		eng:       cfg.Engine,
		perClient: make(map[uint32]uint64),
		batchKeys: make(map[string]bool),
		journal:   make(map[string]journalEntry),
		quorum:    cfg.Quorum,
	}
	for _, st := range cfg.Replicas {
		s.reps = append(s.reps, &replica{store: st})
	}
	s.drainTicker = s.eng.NewTicker(cfg.DrainPeriod, func(des.Time) { s.drain() })
	s.probeTicker = s.eng.NewTicker(cfg.ProbePeriod, func(des.Time) { s.probe() })
	return s, nil
}

// Close stops the service's maintenance tickers. The engine's Stop also
// ends them; Close exists for bounded-horizon runs that keep the engine.
func (s *Service) Close() {
	s.drainTicker.Stop()
	s.probeTicker.Stop()
}

// Stats returns a copy of the service counters.
func (s *Service) Stats() Stats { return s.stats }

// PutLatencies returns a copy of the modeled completion latency of
// every acked Put, in ack order.
func (s *Service) PutLatencies() []des.Time {
	return append([]des.Time(nil), s.putLats...)
}

// Transitions returns a copy of the degradation-ladder timeline.
func (s *Service) Transitions() []Transition {
	return append([]Transition(nil), s.transitions...)
}

// Mode reports the current degradation level.
func (s *Service) Mode() Mode { return s.mode }

// Leader reports the current leader's replica index.
func (s *Service) Leader() int { return s.leader }

// upCount counts replicas currently accepting ops.
func (s *Service) upCount() int {
	n := 0
	for _, r := range s.reps {
		if !r.down {
			n++
		}
	}
	return n
}

// setMode records a ladder transition.
func (s *Service) setMode(to Mode, reason string) {
	if s.mode == to {
		return
	}
	s.transitions = append(s.transitions, Transition{At: s.eng.Now(), From: s.mode, To: to, Reason: reason})
	s.mode = to
	s.stats.ModeChanges++
}

// refreshMode recomputes the ladder position from replica health and
// journal state.
func (s *Service) refreshMode(reason string) {
	up := s.upCount()
	switch {
	case s.journalBytes >= s.cfg.SpillCapacity:
		s.setMode(ModeRefuse, reason)
	case s.promoting || up == 0:
		s.setMode(ModeSpill, reason)
	case up < s.quorum || len(s.journalOrder) > 0:
		s.setMode(ModeAsync, reason)
	default:
		s.setMode(ModeSync, reason)
	}
}

// strike records a failed replica op; three consecutive strikes take
// the replica out of the write set until a probe heals it.
func (s *Service) strike(i int, err error) {
	r := s.reps[i]
	r.strikes++
	if r.strikes >= 3 && !r.down {
		r.down = true
		s.refreshMode(fmt.Sprintf("replica %d struck out (%v)", i, err))
		if i == s.leader {
			s.leaderDown("replica struck out")
		}
	}
}

// clearStrikes marks a successful replica op.
func (s *Service) clearStrikes(i int) {
	r := s.reps[i]
	r.strikes = 0
	r.applied++
}

// Crash marks replica i failed until Heal — the chaos entry point for
// killing group members. Crashing the leader starts the failover
// protocol.
func (s *Service) Crash(i int) {
	r := s.reps[i]
	if r.crashed {
		return
	}
	r.crashed = true
	r.down = true
	r.strikes = 0
	s.refreshMode(fmt.Sprintf("replica %d crashed", i))
	if i == s.leader {
		s.stats.LeaderCrashes++
		s.leaderDown("leader crashed")
	}
}

// CrashLeader crashes whichever replica currently leads.
func (s *Service) CrashLeader() { s.Crash(s.leader) }

// Heal returns a crashed replica to the group. Its store contents are
// whatever survived the crash; drain and read-repair close the gap.
func (s *Service) Heal(i int) {
	r := s.reps[i]
	if !r.crashed {
		return
	}
	r.crashed = false
	r.down = false
	r.strikes = 0
	s.refreshMode(fmt.Sprintf("replica %d healed", i))
}

// PartitionFollower cuts replica i off from the frontend between from
// and to: a scheduled crash + heal, the network-partition analogue for
// a group member.
func (s *Service) PartitionFollower(i int, from, to des.Time) {
	s.eng.Schedule(from, func() { s.Crash(i) })
	s.eng.Schedule(to, func() { s.Heal(i) })
}

// leaderDown starts the failover protocol: writes spill locally while a
// new leader is elected and state is handed off.
func (s *Service) leaderDown(reason string) {
	if s.promoting {
		return
	}
	s.promoting = true
	s.refreshMode("promotion started: " + reason)
	s.eng.After(s.cfg.PromotionTime, s.finishPromotion)
}

// finishPromotion elects the freshest reachable replica (max applied
// ops, ties to the lowest index) as the new leader. If none is
// reachable the protocol re-arms — the group waits for a heal.
func (s *Service) finishPromotion() {
	best := -1
	for i, r := range s.reps {
		if r.down {
			continue
		}
		if best == -1 || r.applied > s.reps[best].applied {
			best = i
		}
	}
	if best == -1 {
		s.stats.PromotionRestarts++
		s.eng.After(s.cfg.PromotionTime, s.finishPromotion)
		return
	}
	s.leader = best
	s.promoting = false
	s.stats.Failovers++
	s.refreshMode(fmt.Sprintf("replica %d promoted to leader", best))
}

// probe retries struck-out (but not crashed) replicas; a replica that
// answers a Size probe rejoins the write set.
func (s *Service) probe() {
	for i, r := range s.reps {
		if !r.down || r.crashed {
			continue
		}
		if _, err := r.store.Size(); err == nil {
			r.down = false
			r.strikes = 0
			s.refreshMode(fmt.Sprintf("replica %d probed healthy", i))
		}
	}
}

// journalPut records replication debt for key. A newer entry replaces
// an older one in place (keeping its FIFO slot).
func (s *Service) journalPut(key string, data []byte, del bool) {
	if old, ok := s.journal[key]; ok {
		s.journalBytes -= uint64(len(old.data))
	} else {
		s.journalOrder = append(s.journalOrder, key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.journal[key] = journalEntry{data: cp, del: del}
	s.journalBytes += uint64(len(data))
	s.stats.JournaledBytes += uint64(len(data))
}

// dropJournal removes key's replication debt, if any.
func (s *Service) dropJournal(key string) {
	old, ok := s.journal[key]
	if !ok {
		return
	}
	s.journalBytes -= uint64(len(old.data))
	delete(s.journal, key)
	for i, k := range s.journalOrder {
		if k == key {
			s.journalOrder = append(s.journalOrder[:i], s.journalOrder[i+1:]...)
			break
		}
	}
}

// drain re-offers journaled debt to the replicas, oldest first, and
// retires entries that reach quorum.
func (s *Service) drain() {
	if len(s.journalOrder) == 0 || s.promoting || s.upCount() < s.quorum {
		return
	}
	var remaining []string
	for _, key := range s.journalOrder {
		e := s.journal[key]
		acks := s.writeAll(key, e.data, e.del)
		if acks >= s.quorum {
			s.journalBytes -= uint64(len(e.data))
			s.stats.DrainedBytes += uint64(len(e.data))
			delete(s.journal, key)
		} else {
			remaining = append(remaining, key)
		}
	}
	s.journalOrder = remaining
	s.refreshMode("journal drained")
}

// writeAll offers one write (or delete) to every up replica and returns
// the ack count. Failures strike the replica.
func (s *Service) writeAll(key string, data []byte, del bool) int {
	acks := 0
	for i, r := range s.reps {
		if r.down {
			continue
		}
		var err error
		if del {
			err = r.store.Delete(key)
			if err != nil && statusOf(err) == StatusNotFound {
				err = nil // the point of a tombstone is absence
			}
		} else {
			err = r.store.Put(key, data)
		}
		if err != nil {
			s.strike(i, err)
			continue
		}
		s.clearStrikes(i)
		acks++
	}
	return acks
}

// View returns a read-only composite over the journal and the replica
// group — the bytes a recovery would actually see. Experiments use it
// to run ckpt.VerifyChain against the service's total state.
func (s *Service) View() storage.Store { return (*serviceView)(s) }

// RecoveryLine returns the newest checkpoint line (sequence number)
// that verifies across all ranks in the service's current state — the
// line a post-failover restart resumes from.
func (s *Service) RecoveryLine(ranks int) (uint64, bool, error) {
	return ckpt.LatestVerifiableSeq(s.View(), ranks)
}

// ---- Op handling ----

// Handle services one encoded request frame and returns the encoded
// response. Transport errors (unparseable frames) are returned as Go
// errors; storage-level failures travel inside the response status.
// Handle does not keep req after it returns — a Put payload is copied
// into the replicas or the journal — so a client may reuse the buffer,
// and the response is a fresh slice the caller owns.
func (s *Service) Handle(req []byte) ([]byte, error) {
	f, err := DecodeFrame(req)
	if err != nil {
		return nil, err
	}
	if f.Kind != KindRequest {
		return nil, fmt.Errorf("%w: service got a non-request frame", ErrBadFrame)
	}
	resp := &Frame{Kind: KindResponse, Op: f.Op, Client: f.Client, ID: f.ID}
	var opErr error
	switch f.Op {
	case OpPut:
		opErr = s.put(f)
	case OpGet:
		var data []byte
		data, opErr = s.get(f.Key)
		resp.Payload = data
	case OpDelete:
		opErr = s.del(f)
	case OpKeys:
		var keys []string
		keys, opErr = s.View().Keys()
		if opErr == nil {
			resp.Payload = encodeKeys(keys)
		}
	case OpSize:
		var n uint64
		n, opErr = s.View().Size()
		if opErr == nil {
			resp.Payload = encodeSize(n)
		}
	}
	resp.Status = statusOf(opErr)
	return resp.Encode(), nil
}

// put admits, times, replicates, and acks one Put. The decision order
// is: model the completion time first, then refuse (deadline, budget,
// fairness) before any state changes, then commit.
func (s *Service) put(f *Frame) error {
	s.stats.Puts++
	n := uint64(len(f.Payload))
	now := s.eng.Now()

	// Batch membership: the first Put opens a window and pays the link
	// latency; later Puts inside it pay serialization only. A duplicate
	// key inside one window is coalesced outright — the frontend's
	// write-combining across retries and re-bases.
	newBatch := now >= s.batchEnd
	coalesced := !newBatch && s.batchKeys[f.Key]
	linkCost := des.Time(float64(n) / s.cfg.Link.Bandwidth * float64(des.Second))
	if newBatch {
		linkCost += s.cfg.Link.Latency
	}

	// Completion estimate: wire transfer, then the quorum-th replica
	// finishes persisting. Spilled writes cost only the wire leg.
	arrive := now + linkCost
	completion := arrive
	if !coalesced && !s.promoting && s.upCount() > 0 {
		var done []des.Time
		for _, r := range s.reps {
			if r.down {
				continue
			}
			start := arrive
			if r.busyUntil > start {
				start = r.busyUntil
			}
			done = append(done, start+s.cfg.ReplicaModel.WriteTime(n))
		}
		sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
		k := s.quorum
		if k > len(done) {
			k = len(done)
		}
		completion = done[k-1]
	}

	// Admission: refuse before mutating anything.
	deadline := f.Deadline
	if s.cfg.OpDeadline > 0 && (deadline == 0 || s.cfg.OpDeadline < deadline) {
		deadline = s.cfg.OpDeadline
	}
	if deadline > 0 && completion-now > deadline {
		s.stats.DeadlineRefusals++
		return fmt.Errorf("ckptstore: put %q would complete in %v, past deadline %v: %w",
			f.Key, completion-now, deadline, storage.ErrDeadlineExceeded)
	}
	if s.inflight+n > s.cfg.InFlightBudget {
		s.stats.OverloadSheds++
		return fmt.Errorf("ckptstore: put %q: in-flight %d+%d over budget %d: %w",
			f.Key, s.inflight, n, s.cfg.InFlightBudget, storage.ErrOverload)
	}
	share := uint64(s.cfg.ClientShare * float64(s.cfg.InFlightBudget))
	if s.perClient[f.Client]+n > share {
		s.stats.FairnessSheds++
		return fmt.Errorf("ckptstore: put %q: client %d over fair share %d: %w",
			f.Key, f.Client, share, storage.ErrOverload)
	}
	if s.mode == ModeRefuse || (s.spillPath() && s.journalBytes+n > s.cfg.SpillCapacity) {
		s.stats.OverloadSheds++
		s.refreshMode("spill journal full")
		return fmt.Errorf("ckptstore: put %q: spill journal full (%d bytes): %w",
			f.Key, s.journalBytes, storage.ErrOverload)
	}

	// Commit: account the batch and the in-flight window.
	if newBatch {
		s.batchEnd = now + s.cfg.BatchWindow
		for k := range s.batchKeys {
			delete(s.batchKeys, k)
		}
		s.stats.Batches++
	}
	s.batchKeys[f.Key] = true
	if coalesced {
		s.stats.CoalescedPuts++
	}
	s.inflight += n
	s.perClient[f.Client] += n
	client := f.Client
	s.eng.Schedule(completion, func() {
		s.inflight -= n
		s.perClient[client] -= n
	})

	// Replicate (or spill) and ack at the achieved durability level.
	switch {
	case s.spillPath():
		s.journalPut(f.Key, f.Payload, false)
		s.stats.SpillAcks++
		s.refreshMode("put spilled")
	default:
		acks := 0
		if !coalesced {
			acks = s.writeAll(f.Key, f.Payload, false)
			for _, r := range s.reps {
				if !r.down && completion > r.busyUntil {
					r.busyUntil = completion
				}
			}
		} else {
			acks = s.quorum // the covering write already carries this key
		}
		switch {
		case acks >= s.quorum:
			s.dropJournal(f.Key)
			s.stats.SyncAcks++
		case acks > 0:
			s.stats.QuorumFailures++
			s.journalPut(f.Key, f.Payload, false)
			s.stats.AsyncAcks++
			s.refreshMode("put under quorum")
		default:
			s.stats.QuorumFailures++
			s.journalPut(f.Key, f.Payload, false)
			s.stats.SpillAcks++
			s.refreshMode("put reached no replica")
		}
	}
	s.stats.AckedPuts++
	s.stats.AckedBytes += n
	s.putLats = append(s.putLats, completion-now)
	return nil
}

// spillPath reports whether writes currently bypass the replicas.
func (s *Service) spillPath() bool {
	return s.promoting || s.upCount() == 0
}

// get serves a read: journal first (the newest acked value), then the
// leader, then follower failover.
func (s *Service) get(key string) ([]byte, error) {
	s.stats.Gets++
	if e, ok := s.journal[key]; ok {
		if e.del {
			return nil, fmt.Errorf("ckptstore: get %q: %w", key, storage.ErrNotFound)
		}
		return append([]byte(nil), e.data...), nil
	}
	order := s.readOrder()
	var firstErr error
	for pos, i := range order {
		r := s.reps[i]
		data, err := r.store.Get(key)
		if err == nil {
			if pos > 0 {
				s.stats.FailoverReads++
			}
			return data, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if statusOf(err) != StatusNotFound {
			s.strike(i, err)
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("ckptstore: get %q: no replica reachable: %w", key, storage.ErrUnavailable)
	}
	return nil, firstErr
}

// readOrder returns up-replica indices, leader first.
func (s *Service) readOrder() []int {
	order := make([]int, 0, len(s.reps))
	if !s.reps[s.leader].down {
		order = append(order, s.leader)
	}
	for i, r := range s.reps {
		if i != s.leader && !r.down {
			order = append(order, i)
		}
	}
	return order
}

// del removes a key: replicated when quorum is reachable, otherwise a
// journaled tombstone.
func (s *Service) del(f *Frame) error {
	s.stats.Deletes++
	if s.spillPath() {
		s.journalPut(f.Key, nil, true)
		return nil
	}
	acks := s.writeAll(f.Key, nil, true)
	if acks >= s.quorum {
		s.dropJournal(f.Key)
		return nil
	}
	s.journalPut(f.Key, nil, true)
	return nil
}

// ---- Composite read view ----

// serviceView adapts the service's total state (journal over replica
// group) to storage.Store for verification and recovery. Writes through
// the view are rejected; mutations must go through the protocol.
type serviceView Service

func (v *serviceView) svc() *Service { return (*Service)(v) }

// Get implements storage.Store.
func (v *serviceView) Get(key string) ([]byte, error) { return v.svc().get(key) }

// Put implements storage.Store.
func (v *serviceView) Put(string, []byte) error {
	return fmt.Errorf("ckptstore: view is read-only: %w", storage.ErrUnavailable)
}

// Delete implements storage.Store.
func (v *serviceView) Delete(string) error {
	return fmt.Errorf("ckptstore: view is read-only: %w", storage.ErrUnavailable)
}

// Keys implements storage.Store: the union over up replicas, overlaid
// with journal additions and tombstones, sorted.
func (v *serviceView) Keys() ([]string, error) {
	s := v.svc()
	set := make(map[string]bool)
	for _, r := range s.reps {
		if r.down {
			continue
		}
		keys, err := r.store.Keys()
		if err != nil {
			continue
		}
		for _, k := range keys {
			set[k] = true
		}
	}
	for k, e := range s.journal {
		if e.del {
			delete(set, k)
		} else {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Size implements storage.Store: the largest up replica plus journaled
// debt — the footprint of one logical copy.
func (v *serviceView) Size() (uint64, error) {
	s := v.svc()
	var best uint64
	for _, r := range s.reps {
		if r.down {
			continue
		}
		if n, err := r.store.Size(); err == nil && n > best {
			best = n
		}
	}
	return best + s.journalBytes, nil
}
