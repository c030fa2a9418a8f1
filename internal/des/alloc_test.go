package des

import (
	"container/heap"
	"math/rand/v2"
	"testing"
)

// TestZeroAllocScheduleStep pins the tentpole property of the arena
// engine: once the slot arena and heap have grown to the working-set
// size, Schedule and Step allocate nothing.
func TestZeroAllocScheduleStep(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm up: grow the arena and heap past the steady-state size.
	for i := 0; i < 256; i++ {
		eng.After(Time(i+1)*Microsecond, fn)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(Microsecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step steady state allocates %v/op, want 0", allocs)
	}
}

// TestZeroAllocTicker pins the same property for the Ticker's re-arm
// path, which fires once per timeslice in every tracker.
func TestZeroAllocTicker(t *testing.T) {
	eng := NewEngine()
	tick := eng.NewTicker(Millisecond, func(Time) {})
	defer tick.Stop()
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("Ticker re-arm allocates %v/op, want 0", allocs)
	}
}

// TestZeroAllocCancel covers the cancel-then-reap slot recycling path.
func TestZeroAllocCancel(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.After(Time(i+1)*Microsecond, fn)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ev := eng.After(Microsecond, fn)
		ev.Cancel()
		eng.Step() // pops the dead node, recycles the slot
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Cancel+Step allocates %v/op, want 0", allocs)
	}
}

// Reference implementation: the pre-arena engine's binary heap over
// boxed events, via container/heap, with the same (time, seq) ordering
// contract. The property test below drives both implementations with an
// identical random schedule (including cancellations and re-entrant
// scheduling) and requires the exact same fire order.
type refEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func TestPropertyHeapOrderMatchesReference(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewPCG(0xbeef, uint64(trial)))

		eng := NewEngine()
		var gotOrder []int

		ref := &refHeap{}
		var refSeq uint64
		var wantOrder []int

		const n = 200
		events := make([]Event, n)
		refEvents := make([]*refEvent, n)
		// Identical schedule on both sides: same times, same insertion
		// order (so the FIFO tie-break keys agree).
		for i := 0; i < n; i++ {
			at := Time(rng.Int64N(50)) * Microsecond // heavy tie collisions
			id := i
			events[i] = eng.Schedule(at, func() { gotOrder = append(gotOrder, id) })
			re := &refEvent{at: at, seq: refSeq, id: id}
			refSeq++
			refEvents[i] = re
			heap.Push(ref, re)
		}
		// Cancel a random subset on both sides.
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.3 {
				events[i].Cancel()
				refEvents[i].dead = true
			}
		}
		for eng.Step() {
		}
		for ref.Len() > 0 {
			re := heap.Pop(ref).(*refEvent)
			if !re.dead {
				wantOrder = append(wantOrder, re.id)
			}
		}

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("trial %d: fire order diverges at %d: got %d, want %d",
					trial, i, gotOrder[i], wantOrder[i])
			}
		}
	}
}

// TestPropertyReentrantScheduling checks order equivalence when
// callbacks schedule new events mid-run — the common pattern in the
// simulator (tickers, bursts, drains).
func TestPropertyReentrantScheduling(t *testing.T) {
	run := func(seed uint64) []int {
		rng := rand.New(rand.NewPCG(seed, 42))
		eng := NewEngine()
		var order []int
		next := 0
		var spawn func(depth int) func()
		spawn = func(depth int) func() {
			id := next
			next++
			return func() {
				order = append(order, id)
				if depth < 3 {
					kids := int(rng.Int64N(3))
					for k := 0; k < kids; k++ {
						eng.After(Time(rng.Int64N(10)+1)*Microsecond, spawn(depth+1))
					}
				}
			}
		}
		for i := 0; i < 50; i++ {
			eng.After(Time(rng.Int64N(20)+1)*Microsecond, spawn(0))
		}
		for eng.Step() {
		}
		return order
	}
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: nondeterministic event count %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: nondeterministic order at %d", seed, i)
			}
		}
	}
}
