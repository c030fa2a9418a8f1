// RDMA drain protocol: why OS-bypass delivery and incremental
// checkpointing fight, and how the checkpoint-time drain/re-register
// protocol reconciles them (§4.2 of the paper).
//
// A ring of ranks exchanges one-sided puts that the NIC writes straight
// into registered application memory — no fault, no tracker entry, so
// mprotect-based dirty tracking silently under-counts and incremental
// checkpoints omit the NIC-written windows. The demo crashes the same
// seeded run twice, mid-flight:
//
//   - naive Direct: the restored line misses the silent pages, and the
//     replay is unfaithful — the measured corruption the under-count
//     causes.
//   - drain protocol: every checkpoint boundary quiesces, drains
//     in-flight puts, deregisters (replaying the suppressed faults),
//     cuts the line, re-registers, reconnects — and the same crash
//     replays bit-exactly.
//
// Run it with:
//
//	go run ./examples/rdma_drain
package main

import (
	"fmt"
	"log"

	"repro/internal/autonomic"
	"repro/internal/chaos"
	"repro/internal/des"
	"repro/internal/mpi"
)

func config(mode autonomic.RDMAMode) autonomic.Config {
	return autonomic.Config{
		Workload: autonomic.PutFactory{
			Pages: 4, PutEvery: 1, Seed: 2.5,
			ComputeTime: 50 * des.Millisecond,
		},
		Ranks:       3,
		Iterations:  12,
		CkptEvery:   3,
		ComputeTime: 50 * des.Millisecond,
		Seed:        11,
		RDMA:        &autonomic.RDMAOptions{Mode: mode},
	}
}

func main() {
	// One node dies mid-run, past the second committed line, while puts
	// are in flight.
	sched, err := chaos.ParseSchedule("crash at 400ms..410ms")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("one-sided-Put ring, 3 ranks, 12 iterations, line every 3, NIC writing Direct")
	fmt.Println()

	naive, err := autonomic.ValidateReplay(config(autonomic.RDMANaive), sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("naive Direct (no drain):")
	fmt.Printf("  NIC bypass traffic:        %6.1f KB\n", float64(naive.Injected.DirectBypassBytes)/1024)
	fmt.Printf("  silent dirty (untracked):  %6.1f KB\n", float64(naive.Injected.SilentDirtyBytes)/1024)
	fmt.Printf("  baked into committed lines:%6.1f KB\n", float64(naive.Injected.CheckpointSilentBytes)/1024)
	if naive.BitExact() {
		fmt.Println("  crash-restore-replay: bit-exact — the under-count had no teeth this run")
	} else {
		fmt.Println("  crash-restore-replay: UNFAITHFUL (expected) — the restored line misses the NIC-written pages")
	}
	fmt.Println()

	out, err := autonomic.ValidateReplay(config(autonomic.RDMADrain), sched)
	if err != nil {
		log.Fatal(err)
	}
	inj := out.Injected
	fmt.Println("drain protocol (quiesce → drain → deregister → checkpoint → reregister → reconnect):")
	fmt.Printf("  drain rounds:              %6d\n", inj.DrainRounds)
	fmt.Printf("  silent dirty reconciled:   %6.1f KB\n", float64(inj.SilentDirtyBytes)/1024)
	fmt.Printf("  baked into committed lines:%6.1f KB\n", float64(inj.CheckpointSilentBytes)/1024)
	fmt.Print("  per-phase latency (µs):   ")
	for p := 0; p < mpi.NumDrainPhases; p++ {
		fmt.Printf(" %s=%.0f", mpi.DrainPhase(p), float64(inj.DrainPhaseTime[p])/float64(des.Microsecond))
	}
	fmt.Println()

	for i, d := range inj.SpaceDigests {
		fmt.Printf("  rank %d digest: %016x vs %016x\n", i, d, out.Reference.SpaceDigests[i])
	}
	if !out.BitExact() {
		fmt.Println("\ndrain replay is UNFAITHFUL — the protocol's equivalence claim is broken")
		return
	}
	fmt.Printf("\ndrain replay is BIT-EXACT: crashed at %v with puts in flight, restored, replayed — same bytes.\n",
		inj.FailureLog[0].At)
}
