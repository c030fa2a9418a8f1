package chaos

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Stats counts what the driver actually injected — the ground truth the
// equivalence validator checks its lost-work accounting against.
type Stats struct {
	// Crashes counts node-kill events fired.
	Crashes int
	// CommitCrashes counts checkpoint commit windows the driver aimed a
	// kill at (two-phase prepare→commit rounds, or the stop-and-copy
	// pause of a one-phase line).
	CommitCrashes int
	// DrainCrashes counts drain rounds killed at a phase entry.
	DrainCrashes int
	// DomainCrashes counts commit rounds that took a whole failure
	// domain down mid-commit.
	DomainCrashes int
	// BitFlips counts stored payloads corrupted; BitFlipMisses counts
	// flip instants that found nothing to corrupt (empty store or a
	// store that refused the read-modify-write).
	BitFlips, BitFlipMisses int
	// OutageRefusals and BrownoutDrops count storage operations the
	// timed fault windows rejected.
	OutageRefusals, BrownoutDrops uint64
}

// Driver binds a compiled Plan to a des.Engine and drives the existing
// per-layer injectors through one interface. One driver serves one run:
// it owns seeded streams whose draws are ordered by the engine's
// deterministic event order.
type Driver struct {
	eng  *des.Engine
	plan *Plan
	rng  *rand.Rand

	stats      Stats
	commitUsed []bool
	drainUsed  []bool
	domainUsed []bool
	flipTarget storage.Store
}

// NewDriver binds plan to eng. The engine must be fresh (virtual time
// zero) so the plan's absolute instants are all still ahead.
func NewDriver(eng *des.Engine, plan *Plan) *Driver {
	if eng == nil || plan == nil {
		panic("chaos: NewDriver needs an engine and a compiled plan")
	}
	return &Driver{
		eng:        eng,
		plan:       plan,
		rng:        rand.New(rand.NewPCG(plan.Seed, 0xD21F)),
		commitUsed: make([]bool, len(plan.CommitCrashes)),
		drainUsed:  make([]bool, len(plan.DrainCrashes)),
		domainUsed: make([]bool, len(plan.DomainCrashes)),
	}
}

// Plan returns the compiled plan the driver is executing.
func (d *Driver) Plan() *Plan { return d.plan }

// Stats returns a copy of the injection counters.
func (d *Driver) Stats() Stats { return d.stats }

// StartCrashes schedules every planned node-kill instant; each fires
// kill. Call once, before the engine runs.
func (d *Driver) StartCrashes(kill func()) {
	if kill == nil {
		panic("chaos: StartCrashes with nil kill callback")
	}
	for _, at := range d.plan.Crashes {
		if at < d.eng.Now() {
			continue // plan instant already in the past: unreachable on a fresh engine
		}
		d.eng.Schedule(at, func() {
			d.stats.Crashes++
			kill()
		})
	}
}

// CommitCrashDelay asks whether a checkpoint commit window opening at
// now and closing at end — the last prepare ack of a two-phase round, or
// the end of a one-phase line's stop-and-copy pause — should be killed
// mid-commit. It consumes at most one planned commit-crash window per
// call and returns a seeded delay strictly inside [0, end-now) — after
// the segments are written, before the COMMIT marker can be — so the
// resulting failure exercises the torn-line recovery path at an
// adversarial instant.
func (d *Driver) CommitCrashDelay(now, end des.Time) (des.Time, bool) {
	for i, w := range d.plan.CommitCrashes {
		if d.commitUsed[i] || !w.contains(now) {
			continue
		}
		d.commitUsed[i] = true
		d.stats.CommitCrashes++
		span := end - now
		if span <= 0 {
			return 0, true
		}
		return des.Time(d.rng.Float64() * float64(span)), true
	}
	return 0, false
}

// DomainCrashDelay asks whether a checkpoint-commit pause opening at now
// and resolving at pauseEnd should take a whole failure domain with it.
// It consumes at most one planned domain-crash window per call and
// returns the domain's name plus a seeded delay strictly inside
// [0, pauseEnd-now) — mid-commit, before the line's parity placement
// lands — so the correlated loss hits the hierarchy at its most
// adversarial instant.
func (d *Driver) DomainCrashDelay(now, pauseEnd des.Time) (string, des.Time, bool) {
	for i, w := range d.plan.DomainCrashes {
		if d.domainUsed[i] || !w.contains(now) {
			continue
		}
		d.domainUsed[i] = true
		d.stats.DomainCrashes++
		span := pauseEnd - now
		if span <= 0 {
			return w.Domain, 0, true
		}
		return w.Domain, des.Time(d.rng.Float64() * float64(span)), true
	}
	return "", 0, false
}

// DrainCrashHit asks whether the drain protocol's entry into phase p at
// virtual time now should kill the node. It consumes at most one planned
// drain-crash window per call, so a schedule with Count n kills n drain
// rounds at the same phase.
func (d *Driver) DrainCrashHit(p mpi.DrainPhase, now des.Time) bool {
	for i, w := range d.plan.DrainCrashes {
		if d.drainUsed[i] || w.Phase != p || !w.contains(now) {
			continue
		}
		d.drainUsed[i] = true
		d.stats.DrainCrashes++
		return true
	}
	return false
}

// MergeNetFaults folds the plan's partition/brownout windows into an
// interconnect fault config: base (which may be nil) is copied, never
// mutated. With no network windows in the plan, base passes through
// untouched — a clean network stays bit-for-bit clean.
func (d *Driver) MergeNetFaults(base *mpi.NetFaultConfig) *mpi.NetFaultConfig {
	if len(d.plan.NetWindows) == 0 {
		return base
	}
	var cfg mpi.NetFaultConfig
	if base != nil {
		cfg = *base
	} else {
		cfg.Seed = d.plan.Seed ^ 0x9E77
	}
	windows := make([]mpi.DegradedWindow, 0, len(cfg.Windows)+len(d.plan.NetWindows))
	windows = append(windows, cfg.Windows...)
	windows = append(windows, d.plan.NetWindows...)
	cfg.Windows = windows
	return &cfg
}

// WrapStore interposes the plan's timed storage faults on inner and
// schedules the plan's bit-flip instants against it. Outage windows
// refuse every operation with storage.ErrUnavailable; brownout windows
// drop a seeded fraction with storage.ErrTransient; bit flips mutate
// stored bytes in place through inner itself, below whatever integrity
// or retry layers the caller stacks on top — silent at-rest corruption
// that only an integrity envelope can surface. Call once per run.
func (d *Driver) WrapStore(inner storage.Store) storage.Store {
	if d.flipTarget != nil {
		panic("chaos: WrapStore called twice")
	}
	d.flipTarget = inner
	for _, at := range d.plan.BitFlips {
		if at < d.eng.Now() {
			continue
		}
		d.eng.Schedule(at, d.flipBit)
	}
	return &timedStore{d: d, inner: inner}
}

// flipBit corrupts one seeded bit of one seeded stored payload, chosen
// uniformly over the store's (sorted, deterministic) key listing at the
// flip instant. A payload already enveloped by an IntegrityStore above
// the wrap point is corrupted envelope and all, so read-back fails the
// CRC — exactly how at-rest rot surfaces in a hardened tier.
func (d *Driver) flipBit() {
	keys, err := d.flipTarget.Keys()
	if err != nil || len(keys) == 0 {
		d.stats.BitFlipMisses++
		return
	}
	key := keys[d.rng.IntN(len(keys))]
	data, err := d.flipTarget.Get(key)
	if err != nil || len(data) == 0 {
		d.stats.BitFlipMisses++
		return
	}
	bit := d.rng.IntN(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8) // Get results are the caller's to modify
	if err := d.flipTarget.Put(key, data); err != nil {
		d.stats.BitFlipMisses++
		return
	}
	d.stats.BitFlips++
}

// timedStore is the storage.Store wrapper that evaluates the plan's
// outage and brownout windows against the engine's virtual clock on
// every operation.
type timedStore struct {
	d     *Driver
	inner storage.Store
}

// check evaluates the timed windows for one operation.
func (s *timedStore) check(op string) error {
	now := s.d.eng.Now()
	for _, w := range s.d.plan.Outages {
		if w.contains(now) {
			s.d.stats.OutageRefusals++
			return fmt.Errorf("chaos: %s at %v inside storage outage [%v, %v): %w",
				op, now, w.From, w.To, storage.ErrUnavailable)
		}
	}
	for _, w := range s.d.plan.Brownouts {
		if w.contains(now) && s.d.rng.Float64() < w.Rate {
			s.d.stats.BrownoutDrops++
			return fmt.Errorf("chaos: %s at %v dropped by storage brownout: %w", op, now, storage.ErrTransient)
		}
	}
	return nil
}

// Put implements storage.Store.
func (s *timedStore) Put(key string, data []byte) error {
	if err := s.check("put"); err != nil {
		return err
	}
	return s.inner.Put(key, data)
}

// Get implements storage.Store.
func (s *timedStore) Get(key string) ([]byte, error) {
	if err := s.check("get"); err != nil {
		return nil, err
	}
	return s.inner.Get(key)
}

// Delete implements storage.Store.
func (s *timedStore) Delete(key string) error {
	if err := s.check("delete"); err != nil {
		return err
	}
	return s.inner.Delete(key)
}

// Keys implements storage.Store.
func (s *timedStore) Keys() ([]string, error) {
	if err := s.check("keys"); err != nil {
		return nil, err
	}
	return s.inner.Keys()
}

// Size implements storage.Store.
func (s *timedStore) Size() (uint64, error) {
	if err := s.check("size"); err != nil {
		return 0, err
	}
	return s.inner.Size()
}
