package main

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/storage"
)

func TestTimingStoreCountsWithoutChangingResults(t *testing.T) {
	rec := NewRecorder()
	ts := NewTimingStore(storage.NewMemStore(), "storage", rec)
	if err := ts.Put("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := ts.Get("k")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := ts.Get("missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want the inner ErrNotFound unchanged", err)
	}
	if keys, err := ts.Keys(); err != nil || len(keys) != 1 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if ts.Puts.Count != 1 || ts.Puts.Bytes != 5 || ts.Gets.Count != 2 || ts.Gets.Bytes != 5 || ts.Errors() != 1 {
		t.Fatalf("puts %+v gets %+v errors %d", ts.Puts, ts.Gets, ts.Errors())
	}
	if len(ts.Gets.Latencies) != 2 || ts.Busy() <= 0 {
		t.Fatalf("latencies %v busy %v", ts.Gets.Latencies, ts.Busy())
	}
	names := map[string]int{}
	for _, s := range rec.Spans() {
		names[s.Name]++
	}
	if names["storage.put"] != 1 || names["storage.get"] != 2 || names["storage.keys"] != 1 {
		t.Fatalf("spans %v", names)
	}
}

// TestWrappedRunEqualsUnwrapped runs each supervised workload with and
// without the timing wrappers (at the service client, at every replica
// and at the L3 store) and requires identical reports: digests,
// checksum and every counter.
func TestWrappedRunEqualsUnwrapped(t *testing.T) {
	for _, w := range []struct {
		name  string
		setup func(uint64) (Prepared, error)
	}{
		{"supervised-2pc-service", setupService},
		{"multilevel-rs-recovery", setupMultiLevel},
	} {
		p, err := w.setup(3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		s := p.(*supervised)
		for _, in := range s.injections {
			plain, _, plainChaos, err := in.run(nil, s.multilevel)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, in.cfg.Seed, err)
			}
			rec := NewRecorder()
			wrapped, st, wrappedChaos, err := in.run(rec, s.multilevel)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if len(st.backends) == 0 || (!s.multilevel && st.client == nil) {
				t.Fatalf("%s: traced run installed no timing wrappers", w.name)
			}
			var calls uint64
			for _, b := range st.backends {
				calls += b.Puts.Count + b.Gets.Count
			}
			if calls == 0 {
				t.Fatalf("%s: the wrapped stores saw no traffic", w.name)
			}
			if !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("%s: wrapped report differs from unwrapped:\n%+v\n%+v", w.name, plain, wrapped)
			}
			if plainChaos != wrappedChaos {
				t.Errorf("%s: chaos stats differ: %+v vs %+v", w.name, plainChaos, wrappedChaos)
			}
			if err := checkSupervised(in.ref, outputOf(wrapped), s.multilevel); err != nil {
				t.Errorf("%s: wrapped run fails its check: %v", w.name, err)
			}
		}
	}
}
