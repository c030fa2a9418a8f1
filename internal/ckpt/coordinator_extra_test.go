package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

func TestChainVolume(t *testing.T) {
	eng := des.NewEngine()
	sp := mem.NewAddressSpace(mem.Config{PageSize: pageSize})
	store := storage.NewMemStore()
	c, _ := NewCheckpointer(eng, sp, Options{Store: store, FullEvery: 3})
	r, _ := sp.Mmap(4 * pageSize)
	sp.Write(r.Start(), bytes.Repeat([]byte{1}, 4*pageSize))
	c.Start()
	r0, _ := c.Checkpoint() // seq 0: full
	sp.Write(r.Start(), bytes.Repeat([]byte{2}, pageSize))
	r1, _ := c.Checkpoint() // seq 1: delta
	sp.Write(r.Start()+pageSize, bytes.Repeat([]byte{3}, pageSize))
	r2, _ := c.Checkpoint() // seq 2: delta

	vol, err := ChainVolume(store, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vol != r0.Bytes+r1.Bytes+r2.Bytes {
		t.Fatalf("chain volume = %d, want %d", vol, r0.Bytes+r1.Bytes+r2.Bytes)
	}
	// Restoring to seq 1 reads only the first two segments.
	vol1, _ := ChainVolume(store, 0, 1)
	if vol1 != r0.Bytes+r1.Bytes {
		t.Fatalf("chain volume to 1 = %d", vol1)
	}
	// A new epoch resets the chain base.
	sp.Write(r.Start(), bytes.Repeat([]byte{4}, pageSize))
	r3, _ := c.Checkpoint() // seq 3: full (FullEvery=3)
	if r3.Kind != Full {
		t.Fatalf("seq 3 kind = %v", r3.Kind)
	}
	vol3, _ := ChainVolume(store, 0, 3)
	if vol3 != r3.Bytes {
		t.Fatalf("fresh epoch volume = %d, want %d", vol3, r3.Bytes)
	}
	if _, err := ChainVolume(store, 0, 99); err == nil {
		t.Fatal("missing target accepted")
	}
}
