package redundancy

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/storage"
)

// restoreAndCheck restores every rank to the latest verifiable line
// through the view and compares memory digests against the fixture's
// pre-failure record.
func restoreAndCheck(t *testing.T, f *fixture, v *RecoveryView) uint64 {
	t.Helper()
	latest, ok, err := ckpt.LatestVerifiableSeq(v, f.h.Ranks())
	if err != nil || !ok {
		t.Fatalf("LatestVerifiableSeq: %v, %v", ok, err)
	}
	if latest != uint64(f.lines-1) {
		t.Fatalf("latest verifiable = %d, want %d", latest, f.lines-1)
	}
	spaces, err := ckpt.RestoreAll(v, f.h.Ranks(), latest)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range spaces {
		if got := sp.Digest(nil); got != f.digests[i] {
			t.Fatalf("rank %d digest %#x, want %#x — restore not bit-exact", i, got, f.digests[i])
		}
	}
	return latest
}

func TestViewHealthyReadsStayLocal(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 4)
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.LevelReads[LevelLocal] == 0 || st.LevelReads[LevelParity] != 0 || st.LevelReads[LevelGlobal] != 0 {
		t.Fatalf("healthy stats = %+v", st)
	}
	if st.Rebuilds != 0 || st.RepairedBack != 0 {
		t.Fatalf("healthy run rebuilt: %+v", st)
	}
}

// One lost rank rebuilds its whole chain from XOR parity without a
// single global-store read — the zero-L3 property of the L2 tier.
func TestViewRebuildsLostRankWithoutL3(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 4)
	victim := f.h.Groups()[0].Members[0]
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	v := f.h.NewView()
	latest := restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.LevelReads[LevelParity] == 0 || st.Rebuilds == 0 {
		t.Fatalf("no L2 rebuilds: %+v", st)
	}
	if st.LevelReads[LevelGlobal] != 0 || st.LevelBytes[LevelGlobal] != 0 {
		t.Fatalf("global store touched: %+v", st)
	}
	if st.RepairedBack == 0 || st.RepairWriteFailures != 0 {
		t.Fatalf("read-repair stats = %+v", st)
	}
	// Read-repair healed the victim's L1 for the next recovery.
	if _, err := f.h.Local(victim).Get(ckpt.SegmentKey(victim, latest)); err != nil {
		t.Fatalf("repaired segment not back on L1: %v", err)
	}
}

// RS k+2 absorbs two simultaneous member losses in one group — the
// m-loss capacity the erasure codec buys over XOR.
func TestViewRebuildsDoubleLossRS(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: RS, K: 2, M: 2},
		Domains:     domains(t, 8, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 4)
	g := f.h.Groups()[0]
	for _, r := range g.Members {
		if err := f.h.WipeRank(r); err != nil {
			t.Fatal(err)
		}
	}
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.Rebuilds == 0 || st.LevelReads[LevelGlobal] != 0 {
		t.Fatalf("double-loss stats = %+v", st)
	}
}

// A corrupt parity shard is detected by the frame CRC and the read
// degrades to L3 — never a torn restore.
func TestViewCorruptParityDegradesToL3(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1, // every line on L3, so the last tier can serve
	}, 4)
	victim := f.h.Groups()[0].Members[0]
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 7))
	if _, ok := f.h.CorruptParity(2, rng); !ok {
		t.Fatal("nothing corrupted")
	}
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.CorruptShards == 0 {
		t.Fatalf("corruption undetected: %+v", st)
	}
	if st.LevelReads[LevelGlobal] == 0 {
		t.Fatalf("corrupt shard did not degrade to L3: %+v", st)
	}
	// Lines with intact parity still rebuilt at L2.
	if st.Rebuilds == 0 {
		t.Fatalf("no L2 rebuilds at all: %+v", st)
	}
}

// An undecodable L1 copy (at-rest rot below any envelope) is treated as
// lost, not trusted: the read silently falls through to a rebuild.
func TestViewDistrustsRottenLocalCopy(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 3)
	victim := f.h.Groups()[0].Members[0]
	key := ckpt.SegmentKey(victim, 1)
	if err := f.h.Local(victim).Put(key, []byte("rotten bytes")); err != nil {
		t.Fatal(err)
	}
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	if st := v.Stats(); st.Rebuilds == 0 || st.LevelReads[LevelGlobal] != 0 {
		t.Fatalf("rot stats = %+v", st)
	}
}

// Regression: a rank whose L1 is a MirrorStore with a dead replica
// accepts the post-rebuild read-repair write-back on the surviving
// replica, surfaces the lost copy in PutQuorumFailures, and serves the
// repaired segment from L1 afterwards.
func TestViewReadRepairThroughDegradedMirror(t *testing.T) {
	var mirror *storage.MirrorStore
	var deadReplica *storage.FaultyStore
	victim := -1
	cfg := Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}
	cfg.NewLocal = func(rank int) storage.Store {
		if rank != 0 {
			return storage.NewMemStore()
		}
		victim = rank
		deadReplica = storage.NewFaultyStore(storage.NewMemStore(), storage.FaultConfig{})
		m, err := storage.NewMirrorStore(deadReplica, storage.NewMemStore())
		if err != nil {
			panic(err)
		}
		mirror = m
		return m
	}
	f := buildFixture(t, cfg, 3)
	if victim != 0 || mirror == nil {
		t.Fatal("mirror-backed rank not built")
	}
	// Lose the rank's chain while both replicas are up, then lose one
	// replica: the read-repair write-back can only land a minority.
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	deadReplica.Kill()
	before := mirror.Stats().PutQuorumFailures

	v := f.h.NewView()
	latest := restoreAndCheck(t, f, v)
	st := v.Stats()
	if st.Rebuilds == 0 || st.RepairedBack == 0 || st.RepairWriteFailures != 0 {
		t.Fatalf("repair stats = %+v", st)
	}
	after := mirror.Stats()
	if after.PutQuorumFailures <= before {
		t.Fatalf("minority write-back not surfaced: %d -> %d", before, after.PutQuorumFailures)
	}
	if after.DegradedPuts == 0 {
		t.Fatalf("mirror stats = %+v", after)
	}
	// The repaired copy is readable back at L1 through the mirror.
	data, err := f.h.Local(victim).Get(ckpt.SegmentKey(victim, latest))
	if err != nil {
		t.Fatalf("repaired copy not on L1: %v", err)
	}
	if _, err := ckpt.DecodeSegment(data); err != nil {
		t.Fatalf("repaired copy undecodable: %v", err)
	}
}

// A fully dead L1 makes the write-back fail: the read still succeeds
// (best-effort repair) and the miss is tallied.
func TestViewRepairWriteFailureIsBestEffort(t *testing.T) {
	var replicas []*storage.FaultyStore
	cfg := Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}
	cfg.NewLocal = func(rank int) storage.Store {
		if rank != 0 {
			return storage.NewMemStore()
		}
		a := storage.NewFaultyStore(storage.NewMemStore(), storage.FaultConfig{})
		b := storage.NewFaultyStore(storage.NewMemStore(), storage.FaultConfig{})
		replicas = []*storage.FaultyStore{a, b}
		m, err := storage.NewMirrorStore(a, b)
		if err != nil {
			panic(err)
		}
		return m
	}
	f := buildFixture(t, cfg, 3)
	if err := f.h.WipeRank(0); err != nil {
		t.Fatal(err)
	}
	for _, r := range replicas {
		r.Kill()
	}
	v := f.h.NewView()
	restoreAndCheck(t, f, v)
	if st := v.Stats(); st.RepairWriteFailures == 0 || st.LevelReads[LevelGlobal] != 0 {
		t.Fatalf("best-effort stats = %+v", st)
	}
}

func TestViewKeysSynthesizeLostSegments(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1000,
	}, 3)
	victim := f.h.Groups()[0].Members[0]
	if err := f.h.WipeRank(victim); err != nil {
		t.Fatal(err)
	}
	v := f.h.NewView()
	keys, err := v.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for seq := uint64(0); seq < 3; seq++ {
		want[ckpt.SegmentKey(victim, seq)] = true
	}
	for _, k := range keys {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("wiped rank's segments missing from Keys: %v", want)
	}
	if n, err := v.Size(); err != nil || n == 0 {
		t.Fatalf("Size = %d, %v", n, err)
	}
}

func TestViewIsReadOnly(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:  Scheme{Kind: XOR, K: 2, M: 1},
		Domains: domains(t, 4, 1),
		Global:  storage.NewMemStore(),
	}, 1)
	v := f.h.NewView()
	if err := v.Put("k", nil); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Put: %v", err)
	}
	if err := v.Delete("k"); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Delete: %v", err)
	}
}

// A signed number in an L1 key names no rank or parity group: the key
// parsers take digits only, so such keys are neither listed as
// reconstructible segments nor indexed into the per-rank tables.
func TestViewIgnoresSignedKeys(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:  Scheme{Kind: XOR, K: 2, M: 1},
		Domains: domains(t, 4, 1),
		Global:  storage.NewMemStore(),
	}, 1)
	const segKey, parityKey = "rank-01/seg000001", "parity/g-01/seq000001/s00"
	for _, k := range []string{segKey, parityKey} {
		if err := f.h.Local(0).Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	v := f.h.NewView()
	keys, err := v.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k == segKey || k == parityKey {
			t.Fatalf("Keys lists %q", k)
		}
	}
	for _, k := range []string{segKey, parityKey} {
		if _, err := v.Get(k); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("Get(%q) = %v, want ErrNotFound", k, err)
		}
	}
}
