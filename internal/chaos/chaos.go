// Package chaos is a deterministic, seed-driven fault-schedule engine.
//
// The repo already injects faults per layer — storage.FaultyStore rots a
// sink, mpi.NetFaultConfig degrades the interconnect, the autonomic
// supervisor kills nodes on a Poisson clock — but each layer rolls its
// own dice, so "crash while the network is partitioned and the sink is
// browning out" cannot be expressed, let alone reproduced. This package
// turns adversarial failure timing into data: a declarative Schedule
// lists fault specs (node crashes, crashes aimed inside two-phase commit
// windows, crashes at RDMA drain-protocol phase entries, network
// partitions and brownouts, storage outages and brownouts, silent
// bit-flips of stored checkpoint payloads), each with
// a virtual-time window, an optional correlation group, and seeded
// jitter. Compile resolves the schedule against one seed into a Plan of
// concrete virtual-time events, and a Driver binds the plan to a
// des.Engine and drives the existing injectors through one interface:
//
//	sched, _ := chaos.ParseSchedule(text)
//	plan, _ := sched.Compile(seed)
//	drv := chaos.NewDriver(eng, plan)
//	store := drv.WrapStore(storage.NewMemStore()) // timed outages, brownouts, bit-flips
//	cfg.NetFaults = drv.MergeNetFaults(cfg.NetFaults)
//	drv.StartCrashes(killNode)
//
// Same schedule, same seed → the same faults at the same virtual
// instants, every run. That determinism is what makes the
// crash–restore–replay equivalence validation in internal/autonomic
// possible: a failure-free reference run and a chaos run of the same
// seed are comparable bit for bit.
package chaos

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mpi"
)

// Kind enumerates the fault classes a Spec can inject.
type Kind uint8

const (
	// Crash kills a node at a seeded instant inside the window.
	Crash Kind = iota
	// CommitCrash kills a node inside a checkpoint commit window that
	// opens during the spec's window: between prepare and the
	// COMMIT-marker write under two-phase commit, inside the
	// stop-and-copy pause under one-phase commit. Each Count consumes
	// one commit window.
	CommitCrash
	// Partition severs the whole fabric for the window: severe packet
	// loss on every link (clamped by the mpi layer's loss cap, so ARQ
	// traffic crawls through rather than deadlocking the simulation).
	Partition
	// Brownout degrades the fabric for the window: extra loss and a
	// transfer-time slowdown — a congested or flapping switch.
	Brownout
	// StorageOutage makes stable storage refuse every operation during
	// the window (storage.ErrUnavailable).
	StorageOutage
	// StorageBrownout makes stable storage drop a seeded fraction of
	// operations during the window (storage.ErrTransient).
	StorageBrownout
	// BitFlip silently flips one seeded bit of one stored checkpoint
	// payload at a seeded instant inside the window — at-rest corruption
	// below any integrity envelope, detectable only on read-back.
	BitFlip
	// DrainCrash kills a node the moment the RDMA checkpoint-drain
	// protocol enters a named phase (quiesce, drain, deregister,
	// checkpoint, reregister, reconnect) inside the spec's window. Each
	// Count consumes one drain round — the adversarial instants for the
	// drain/re-register state machine. A run without the drain protocol
	// rejects it up front.
	DrainCrash
	// DomainCrash kills every rank of a named failure domain mid-commit:
	// the first checkpoint-commit pause that opens inside the spec's
	// window draws a seeded kill instant inside the pause, before the
	// line's parity shards finish placing — the correlated loss a
	// multi-level hierarchy's domain-disjoint placement must absorb.
	// Each Count consumes one commit round. A run without failure
	// domains (no multi-level hierarchy) rejects it up front.
	DomainCrash
)

// String names the kind the way the schedule language spells it.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case CommitCrash:
		return "commit-crash"
	case Partition:
		return "partition"
	case Brownout:
		return "brownout"
	case StorageOutage:
		return "storage-outage"
	case StorageBrownout:
		return "storage-brownout"
	case BitFlip:
		return "bitflip"
	case DrainCrash:
		return "crash-during-drain"
	case DomainCrash:
		return "domain-crash"
	default:
		return fmt.Sprintf("chaos.Kind(%d)", k)
	}
}

// Spec is one declarative fault: a kind, a virtual-time window it lands
// in, and knobs whose meaning depends on the kind. The zero values of
// the knobs select per-kind defaults (see Validate).
type Spec struct {
	Kind Kind
	// From and To bound the fault's virtual-time window. Instant kinds
	// (Crash, BitFlip) draw their instants inside [From, To]; window
	// kinds (Partition, Brownout, StorageOutage, StorageBrownout) are
	// active over [From+shift, To+shift) where shift is the seeded
	// jitter draw; CommitCrash consumes commit rounds that open inside
	// [From, To).
	From, To des.Time
	// Jitter adds a uniform seeded offset in [0, Jitter) to each drawn
	// instant (instant kinds) or shifts the whole window (window kinds).
	Jitter des.Time
	// Count is the number of events drawn for instant kinds and the
	// number of commit rounds a CommitCrash consumes (0 → 1). Window
	// kinds ignore it.
	Count int
	// Group names a correlation group: specs sharing a group share one
	// seeded base draw, so their events land at the same fractional
	// position of their windows — correlated, bursty failures (stdchk's
	// adversary) instead of independent ones.
	Group string
	// Drop is the extra packet-loss probability of Partition (default
	// 0.85) and Brownout (default 0.2) windows.
	Drop float64
	// Slow is Brownout's transfer-time multiplier (default 2).
	Slow float64
	// Rate is StorageBrownout's per-operation drop probability
	// (default 0.5).
	Rate float64
	// Phase is the drain-protocol phase token a DrainCrash targets
	// (one of mpi's drain phase names, e.g. "deregister").
	Phase string
	// Domain names the failure domain a DomainCrash kills (a domain
	// name from the run's cluster.DomainMap, e.g. "d1").
	Domain string
}

// Schedule is a declarative list of fault specs — the unit that parses,
// validates and compiles.
type Schedule struct {
	Specs []Spec
}

// Validate checks every spec for structural sanity and reports the first
// violation. A valid schedule always compiles.
func (s *Schedule) Validate() error {
	if s == nil {
		return fmt.Errorf("chaos: nil schedule")
	}
	for i, sp := range s.Specs {
		prefix := fmt.Sprintf("chaos: spec %d (%s)", i, sp.Kind)
		switch {
		case sp.Kind > DomainCrash:
			return fmt.Errorf("chaos: spec %d: unknown kind %d", i, sp.Kind)
		case sp.From < 0 || sp.To < sp.From:
			return fmt.Errorf("%s: window [%v, %v] is not ordered and non-negative", prefix, sp.From, sp.To)
		case sp.Jitter < 0:
			return fmt.Errorf("%s: negative jitter %v", prefix, sp.Jitter)
		case sp.Count < 0:
			return fmt.Errorf("%s: negative count %d", prefix, sp.Count)
		case sp.Count > maxEventsPerSpec:
			return fmt.Errorf("%s: count %d exceeds the per-spec cap %d", prefix, sp.Count, maxEventsPerSpec)
		case !(sp.Drop >= 0 && sp.Drop < 1): // also rejects NaN
			return fmt.Errorf("%s: drop %v out of [0, 1)", prefix, sp.Drop)
		case !(sp.Rate >= 0 && sp.Rate < 1):
			return fmt.Errorf("%s: rate %v out of [0, 1)", prefix, sp.Rate)
		case !(sp.Slow >= 0) || sp.Slow > maxSlowFactor:
			return fmt.Errorf("%s: slow factor %v out of [0, %v]", prefix, sp.Slow, float64(maxSlowFactor))
		}
		switch sp.Kind {
		case Partition, Brownout, StorageOutage, StorageBrownout:
			if sp.To == sp.From {
				return fmt.Errorf("%s: window kinds need a non-empty window", prefix)
			}
		case DrainCrash:
			if _, err := mpi.ParseDrainPhase(sp.Phase); err != nil {
				return fmt.Errorf("%s: %w", prefix, err)
			}
		case DomainCrash:
			if sp.To == sp.From {
				return fmt.Errorf("%s: needs a non-empty window to catch a commit round", prefix)
			}
			if sp.Domain == "" {
				return fmt.Errorf("%s: needs a domain name (domain <name>)", prefix)
			}
		}
	}
	return nil
}

// maxEventsPerSpec bounds Count so a hostile schedule cannot compile
// into an event flood.
const maxEventsPerSpec = 1024

// maxSlowFactor bounds Brownout's transfer-time multiplier: a slowdown
// beyond this effectively freezes the simulation's traffic.
const maxSlowFactor = 1024
