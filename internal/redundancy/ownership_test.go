package redundancy

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// A rank store writes through to L1 and, on global lines, to L3; both
// copies are independent of the Put buffer and of every Get result.
func TestRankStoreOwnership(t *testing.T) {
	storagetest.Ownership(t, func(t *testing.T) storage.Store {
		h, err := NewHierarchy(Config{
			Scheme:  Scheme{Kind: XOR, K: 2, M: 1},
			Domains: domains(t, 4, 1),
			Global:  storage.NewMemStore(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return h.RankStore(0)
	})
}

// A recovery view hands out caller-owned bytes from every tier: an L1
// read, an L2 rebuild and the cached rebuild behind it, and an L3 read.
func TestRecoveryViewGetOwnership(t *testing.T) {
	f := buildFixture(t, Config{
		Scheme:      Scheme{Kind: XOR, K: 2, M: 1},
		Domains:     domains(t, 4, 1),
		Global:      storage.NewMemStore(),
		GlobalEvery: 1,
	}, 2)
	v := f.h.NewView()
	storagetest.GetOwnership(t, v, ckpt.SegmentKey(1, 1))
	if err := f.h.WipeRank(0); err != nil {
		t.Fatal(err)
	}
	storagetest.GetOwnership(t, v, ckpt.SegmentKey(0, 1))
	storagetest.GetOwnership(t, v, ckpt.SegmentKey(2, 1))
	st := v.Stats()
	if st.LevelReads[LevelLocal] == 0 || st.LevelReads[LevelParity] == 0 {
		t.Fatalf("view stats %+v: want L1 reads and L2 rebuild reads", st)
	}

	// With rank 0's L1 copy and its group's parity gone, the view falls
	// back to L3.
	grp, ok := f.h.GroupOf(0)
	if !ok {
		t.Fatal("rank 0 has no parity group")
	}
	for _, r := range append([]int{0}, grp.Partners...) {
		if err := f.h.WipeRank(r); err != nil {
			t.Fatal(err)
		}
	}
	g := f.h.NewView()
	storagetest.GetOwnership(t, g, ckpt.SegmentKey(0, 1))
	if g.Stats().LevelReads[LevelGlobal] == 0 {
		t.Fatalf("view stats %+v: want L3 reads", g.Stats())
	}
}
