package storage_test

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// Every concrete store and wrapper in this package honours the Store
// buffer-ownership contract, alone and stacked the way the supervisor
// stacks them.
func TestStoreOwnership(t *testing.T) {
	mirror := func(t *testing.T, replicas ...storage.Store) storage.Store {
		m, err := storage.NewMirrorStore(replicas...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	retry := storage.RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 4, Seed: 1}
	for _, c := range []struct {
		name     string
		newStore func(t *testing.T) storage.Store
	}{
		{"MemStore", func(t *testing.T) storage.Store { return storage.NewMemStore() }},
		{"FileStore", func(t *testing.T) storage.Store {
			s, err := storage.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"IntegrityStore", func(t *testing.T) storage.Store {
			return storage.NewIntegrityStore(storage.NewMemStore())
		}},
		{"FaultyStore", func(t *testing.T) storage.Store {
			return storage.NewFaultyStore(storage.NewMemStore(), storage.FaultConfig{Seed: 1})
		}},
		{"ResilientStore", func(t *testing.T) storage.Store {
			return storage.NewResilientStore(storage.NewMemStore(), retry)
		}},
		{"MirrorStore", func(t *testing.T) storage.Store {
			return mirror(t, storage.NewMemStore(), storage.NewMemStore(), storage.NewMemStore())
		}},
		{"Resilient/Mirror/Integrity", func(t *testing.T) storage.Store {
			return storage.NewResilientStore(mirror(t,
				storage.NewIntegrityStore(storage.NewMemStore()),
				storage.NewIntegrityStore(storage.NewMemStore()),
			), retry)
		}},
	} {
		t.Run(c.name, func(t *testing.T) { storagetest.Ownership(t, c.newStore) })
	}
}
