package ckptstore

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// A service client honours the Store ownership contract even though
// the frame codec decodes payloads as views: a Put payload is copied
// into the replicas, and a Get result aliases only the response frame
// the client alone holds.
func TestClientOwnership(t *testing.T) {
	storagetest.Ownership(t, func(t *testing.T) storage.Store {
		svc, _, _ := newTestService(t, nil)
		return svc.Client(1)
	})
}

// The same holds when every replica is down and Puts and Gets are
// served by the spill journal.
func TestClientOwnershipJournal(t *testing.T) {
	var svc *Service
	storagetest.Ownership(t, func(t *testing.T) storage.Store {
		svc, _, _ = newTestService(t, nil)
		for i := 0; i < 3; i++ {
			svc.Crash(i)
		}
		return svc.Client(1)
	})
	if st := svc.Stats(); st.SpillAcks == 0 {
		t.Fatal("no Put was spilled to the journal")
	}
}
