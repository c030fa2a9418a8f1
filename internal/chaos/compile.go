package chaos

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/des"
	"repro/internal/mpi"
)

// Window is a half-open virtual-time interval [From, To).
type Window struct {
	From, To des.Time
}

// contains reports whether at falls inside the window.
func (w Window) contains(at des.Time) bool { return at >= w.From && at < w.To }

// BrownoutWindow is a storage brownout: during the window a seeded
// fraction Rate of operations fail transiently.
type BrownoutWindow struct {
	Window
	Rate float64
}

// DrainCrashWindow is a drain-protocol kill: the first time the drain
// state machine enters Phase inside the window, the node dies.
type DrainCrashWindow struct {
	Window
	Phase mpi.DrainPhase
}

// DomainCrashWindow is a correlated kill: the first checkpoint-commit
// pause opening inside the window takes every rank of the named failure
// domain with it, at a seeded instant inside the pause.
type DomainCrashWindow struct {
	Window
	Domain string
}

// Plan is a compiled schedule: every seeded draw resolved against one
// seed, leaving only concrete virtual-time events and windows. Plans are
// immutable once compiled; a Driver consumes one.
type Plan struct {
	// Seed is the seed the schedule was compiled with; the Driver
	// derives its own streams (bit selection, commit-crash placement,
	// brownout rolls) from it.
	Seed uint64
	// Crashes are node-kill instants, ascending.
	Crashes []des.Time
	// CommitCrashes are windows inside which checkpoint commit windows
	// are killed mid-commit, one commit per entry.
	CommitCrashes []Window
	// NetWindows are the compiled partition/brownout fabric degradations
	// in mpi's native form.
	NetWindows []mpi.DegradedWindow
	// Outages are storage dead-air windows (every operation refused).
	Outages []Window
	// Brownouts are storage degradation windows (seeded fractional drop).
	Brownouts []BrownoutWindow
	// BitFlips are at-rest corruption instants, ascending.
	BitFlips []des.Time
	// DrainCrashes are windows inside which RDMA drain rounds are killed
	// at a named phase's entry, one round per entry.
	DrainCrashes []DrainCrashWindow
	// DomainCrashes are windows inside which checkpoint-commit rounds
	// kill a whole failure domain mid-commit, one round per entry.
	DomainCrashes []DomainCrashWindow
}

// Horizon returns the virtual time after which the plan injects nothing
// more — useful for sizing runs so every fault actually lands.
func (p *Plan) Horizon() des.Time {
	var h des.Time
	grow := func(t des.Time) {
		if t > h {
			h = t
		}
	}
	for _, t := range p.Crashes {
		grow(t)
	}
	for _, t := range p.BitFlips {
		grow(t)
	}
	for _, w := range p.CommitCrashes {
		grow(w.To)
	}
	for _, w := range p.NetWindows {
		grow(w.To)
	}
	for _, w := range p.Outages {
		grow(w.To)
	}
	for _, w := range p.Brownouts {
		grow(w.To)
	}
	for _, w := range p.DrainCrashes {
		grow(w.To)
	}
	for _, w := range p.DomainCrashes {
		grow(w.To)
	}
	return h
}

// Events reports how many discrete injections the plan holds (crashes,
// commit kills, bit flips) — windows count once each.
func (p *Plan) Events() int {
	return len(p.Crashes) + len(p.CommitCrashes) + len(p.BitFlips) +
		len(p.NetWindows) + len(p.Outages) + len(p.Brownouts) +
		len(p.DrainCrashes) + len(p.DomainCrashes)
}

// Compile resolves the schedule's seeded draws into a Plan. The same
// (schedule, seed) pair always yields the identical plan; different
// seeds move every jittered instant and shifted window. Specs sharing a
// correlation group share one base draw, so their events land at the
// same fractional position of their respective windows — a correlated
// failure burst.
func (s *Schedule) Compile(seed uint64) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xC4A05))
	groupBase := make(map[string]float64)
	// base returns the spec's fractional position draw: the group's
	// shared draw when grouped (drawn on first use, in spec order, so
	// compilation stays deterministic), a fresh one otherwise.
	base := func(sp Spec) float64 {
		if sp.Group == "" {
			return rng.Float64()
		}
		f, ok := groupBase[sp.Group]
		if !ok {
			f = rng.Float64()
			groupBase[sp.Group] = f
		}
		return f
	}
	p := &Plan{Seed: seed}
	for _, sp := range s.Specs {
		count := sp.Count
		if count == 0 {
			count = 1
		}
		switch sp.Kind {
		case Crash, BitFlip:
			for i := 0; i < count; i++ {
				at := sp.From + des.Time(base(sp)*float64(sp.To-sp.From))
				if sp.Jitter > 0 {
					at += des.Time(rng.Float64() * float64(sp.Jitter))
				}
				if at > sp.To {
					at = sp.To
				}
				if sp.Kind == Crash {
					p.Crashes = append(p.Crashes, at)
				} else {
					p.BitFlips = append(p.BitFlips, at)
				}
			}
		case CommitCrash:
			w := shiftWindow(sp, base(sp))
			for i := 0; i < count; i++ {
				p.CommitCrashes = append(p.CommitCrashes, w)
			}
		case Partition:
			drop := sp.Drop
			if drop == 0 {
				drop = 0.85
			}
			p.NetWindows = append(p.NetWindows, degraded(shiftWindow(sp, base(sp)), drop, 1))
		case Brownout:
			drop, slow := sp.Drop, sp.Slow
			if drop == 0 {
				drop = 0.2
			}
			if slow == 0 {
				slow = 2
			}
			p.NetWindows = append(p.NetWindows, degraded(shiftWindow(sp, base(sp)), drop, slow))
		case StorageOutage:
			p.Outages = append(p.Outages, shiftWindow(sp, base(sp)))
		case StorageBrownout:
			rate := sp.Rate
			if rate == 0 {
				rate = 0.5
			}
			p.Brownouts = append(p.Brownouts, BrownoutWindow{Window: shiftWindow(sp, base(sp)), Rate: rate})
		case DrainCrash:
			phase, err := mpi.ParseDrainPhase(sp.Phase)
			if err != nil {
				return nil, fmt.Errorf("chaos: compile: %w", err)
			}
			w := shiftWindow(sp, base(sp))
			for i := 0; i < count; i++ {
				p.DrainCrashes = append(p.DrainCrashes, DrainCrashWindow{Window: w, Phase: phase})
			}
		case DomainCrash:
			w := shiftWindow(sp, base(sp))
			for i := 0; i < count; i++ {
				p.DomainCrashes = append(p.DomainCrashes, DomainCrashWindow{Window: w, Domain: sp.Domain})
			}
		default:
			return nil, fmt.Errorf("chaos: compile: unknown kind %d", sp.Kind)
		}
	}
	sort.Slice(p.Crashes, func(i, j int) bool { return p.Crashes[i] < p.Crashes[j] })
	sort.Slice(p.BitFlips, func(i, j int) bool { return p.BitFlips[i] < p.BitFlips[j] })
	return p, nil
}

// shiftWindow applies a window kind's seeded jitter: the whole window
// shifts by frac*Jitter, preserving its width.
func shiftWindow(sp Spec, frac float64) Window {
	shift := des.Time(frac * float64(sp.Jitter))
	return Window{From: sp.From + shift, To: sp.To + shift}
}

// degraded converts a window to mpi's fabric-degradation form.
func degraded(w Window, drop, slow float64) mpi.DegradedWindow {
	return mpi.DegradedWindow{From: w.From, To: w.To, ExtraDrop: drop, SlowFactor: slow}
}
