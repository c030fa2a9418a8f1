package storage

import (
	"runtime"
	"testing"
)

// TestIntegrityPutAllocsOnlyTheStoredCopy pins the reusable seal
// buffer: after warm-up, sealing a value allocates nothing, so a Put
// through an IntegrityStore over a MemStore costs exactly the one
// envelope-sized copy the MemStore keeps.
func TestIntegrityPutAllocsOnlyTheStoredCopy(t *testing.T) {
	// 64 KiB envelopes are a whole number of pages, so the MemStore
	// copy's allocation is exactly its length.
	data := make([]byte, 64<<10-envelopeHeader)
	s := NewIntegrityStore(NewMemStore())
	put := func() {
		if err := s.Put("k", data); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if allocs := testing.AllocsPerRun(100, put); allocs > 1 {
		t.Fatalf("IntegrityStore.Put allocates %v/op, want at most 1 (the MemStore copy)", allocs)
	}
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		put()
	}
	runtime.ReadMemStats(&after)
	// The byte count allows 1 KiB/op for the runtime's own allocations
	// during the loop; a second envelope-sized allocation would need 64.
	envelope := uint64(len(data) + envelopeHeader)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / n; perOp > envelope+1024 {
		t.Fatalf("IntegrityStore.Put allocates %d B/op, want about %d (one envelope copy)", perOp, envelope)
	}
}

// TestZeroAllocOpen pins the envelope check: Open returns a view of the
// payload and allocates nothing on success.
func TestZeroAllocOpen(t *testing.T) {
	frame := Seal(make([]byte, 4096))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Open(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Open allocates %v/op, want 0", allocs)
	}
}
