package chaos

import (
	"testing"

	"repro/internal/des"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// WrapStore's timed store passes data through synchronously, so it
// honours the Store ownership contract outside its fault windows.
func TestWrapStoreOwnership(t *testing.T) {
	storagetest.Ownership(t, func(t *testing.T) storage.Store {
		p, err := mustParse(t, "storage-outage at 1s..2s").Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		return NewDriver(des.NewEngine(), p).WrapStore(storage.NewMemStore())
	})
}
