// Package storage provides the stable-storage substrate checkpoints are
// saved to: cost models for the sinks the paper compares against (§3:
// Quadrics QsNet II at 900 MB/s peak and SCSI disk at 320 MB/s peak), and
// concrete stores (in-memory and file-backed) for checkpoint segments.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/des"
)

// Sentinel errors of the storage tier. Concrete stores and wrappers
// return these wrapped with context, so callers classify failures with
// errors.Is instead of string matching.
var (
	// ErrNotFound reports a Get or Delete of a key that is not stored.
	ErrNotFound = errors.New("storage: key not found")
	// ErrCorrupt reports data that failed an integrity check — the bytes
	// came back, but they are not the bytes that were put. Retrying the
	// same replica cannot help; a mirror can.
	ErrCorrupt = errors.New("storage: data corrupt")
	// ErrUnavailable reports a sink that is down for good (device died,
	// partner node lost). Retrying cannot help; failover can.
	ErrUnavailable = errors.New("storage: sink unavailable")
	// ErrTransient marks failures worth retrying: dropped requests,
	// timeouts, momentary contention. Injected faults and real stores
	// wrap this so ResilientStore knows an operation may be re-issued.
	ErrTransient = errors.New("storage: transient failure")
	// ErrDeadlineExceeded reports an operation that could not finish
	// inside its virtual-time budget — a retry loop whose backoff would
	// outlast the checkpoint timeslice, or a service op whose modeled
	// completion falls past its deadline. It is classified permanent by
	// IsTransient: retrying the same op against the same clock cannot
	// make the deadline; the caller must re-plan (skip the line, widen
	// the timeslice, pick another sink).
	ErrDeadlineExceeded = errors.New("storage: deadline exceeded")
)

// ErrOverload reports load shedding by an admission controller: the sink
// is healthy but saturated, and the operation was refused to protect the
// in-flight work already admitted. It wraps ErrTransient — backing off
// and retrying is exactly the right response — so IsTransient reports
// true and ResilientStore rides it out on the existing retry path, while
// errors.Is(err, ErrOverload) still distinguishes shedding from other
// transient failures.
var ErrOverload = fmt.Errorf("storage: overloaded, load shed: %w", ErrTransient)

// IsTransient reports whether err is worth retrying against the same
// store. Everything not explicitly marked transient — not-found,
// corruption, permanent outage, unknown failures — is permanent.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient)
}

// Model is the bandwidth/latency cost model of a checkpoint sink.
type Model struct {
	// Name identifies the sink in reports.
	Name string
	// Latency is the fixed per-operation cost (seek, protocol setup).
	Latency des.Time
	// Bandwidth is the peak sustained write bandwidth in bytes per
	// virtual second.
	Bandwidth float64
}

// QsNetSink models streaming checkpoints over the Quadrics QsNet II
// network (§3: 900 MB/s peak).
func QsNetSink() Model {
	return Model{Name: "QsNet II (900 MB/s)", Latency: 5 * des.Microsecond, Bandwidth: 900e6}
}

// SCSISink models a local SCSI disk array (§3: 320 MB/s peak, Seagate
// Cheetah class).
func SCSISink() Model {
	return Model{Name: "SCSI (320 MB/s)", Latency: 5 * des.Millisecond, Bandwidth: 320e6}
}

// DisklessSink models diskless checkpointing (Plank et al. [19]):
// checkpoints stream to a partner node's memory over the interconnect,
// so the path is network-bound (900 MB/s) with memory-class latency —
// no seek, no platters. Faster commits at the cost of surviving only
// single-node failures.
func DisklessSink() Model {
	return Model{Name: "diskless peer memory (900 MB/s)", Latency: 10 * des.Microsecond, Bandwidth: 900e6}
}

// NVMeSink models a node-local NVMe device — the L1 tier of a
// multi-level checkpoint hierarchy: microsecond-class latency, well
// above network bandwidth, but gone with the node that owns it.
func NVMeSink() Model {
	return Model{Name: "local NVMe (3.2 GB/s)", Latency: 20 * des.Microsecond, Bandwidth: 3.2e9}
}

// WriteTime returns the virtual time needed to persist n bytes.
func (m Model) WriteTime(n uint64) des.Time {
	if m.Bandwidth <= 0 {
		return m.Latency
	}
	return m.Latency + des.Time(float64(n)/m.Bandwidth*float64(des.Second))
}

// Headroom returns available/required: how many times over the sink can
// absorb the given bandwidth requirement (bytes per virtual second).
// Values above 1 mean the sink keeps up — the paper's feasibility
// criterion (§6.3).
func (m Model) Headroom(requiredBps float64) float64 {
	if requiredBps <= 0 {
		return 0
	}
	return m.Bandwidth / requiredBps
}

// Store persists named checkpoint segments.
//
// Buffer ownership: Put does not keep data, or any slice of it, after it
// returns — an implementation copies or writes out what it stores, and a
// wrapper hands data on only synchronously — so a caller may reuse or
// overwrite data as soon as Put returns. Get returns a slice the caller
// owns: nothing else holds it, and modifying it cannot change the stored
// value. Checkpointers and integrity envelopes encode into reused
// buffers, and segment decoding returns views into Get results, on the
// strength of this contract. storagetest.Ownership checks it.
type Store interface {
	// Put stores data under key, replacing any previous value. It does
	// not keep data after it returns.
	Put(key string, data []byte) error
	// Get retrieves the data stored under key into a slice the caller
	// owns. A missing key reports ErrNotFound (wrapped).
	Get(key string) ([]byte, error)
	// Delete removes key. Deleting a missing key reports ErrNotFound
	// (wrapped).
	Delete(key string) error
	// Keys returns all stored keys in sorted order.
	Keys() ([]string, error)
	// Size returns the total stored bytes.
	Size() (uint64, error)
}

// MemStore is an in-memory Store, safe for concurrent use.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Put implements Store.
func (s *MemStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	s.m[key] = cp
	return nil
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("key %q: %w", key, ErrNotFound)
	}
	cp := make([]byte, len(d))
	copy(cp, d)
	return cp, nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; !ok {
		return fmt.Errorf("key %q: %w", key, ErrNotFound)
	}
	delete(s.m, key)
	return nil
}

// Keys implements Store.
func (s *MemStore) Keys() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Size implements Store.
func (s *MemStore) Size() (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n uint64
	for _, d := range s.m {
		n += uint64(len(d))
	}
	return n, nil
}

// FileStore persists segments as files under a directory. Keys may
// contain '/' separators, which map to subdirectories.
type FileStore struct {
	dir string
}

// NewFileStore creates (if needed) and opens a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", dir, err)
	}
	return &FileStore{dir: dir}, nil
}

func (s *FileStore) path(key string) (string, error) {
	if key == "" || strings.Contains(key, "..") || filepath.IsAbs(key) {
		return "", fmt.Errorf("storage: invalid key %q", key)
	}
	return filepath.Join(s.dir, filepath.FromSlash(key)), nil
}

// Put implements Store. The write is crash-atomic: data goes to a
// uniquely named temp file in the destination directory, is flushed to
// the device, and is then renamed over the key — readers see either the
// old value or the complete new one, never a torn file (the failure the
// fault injector models; a real crashed writer must not produce it).
func (s *FileStore) Put(key string, data []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(p)+".tmp*")
	if err != nil {
		return fmt.Errorf("storage: key %q: %w", key, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: key %q: %w", key, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: key %q: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: key %q: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(key string) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	d, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("key %q: %w", key, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: key %q: %w", key, err)
	}
	return d, nil
}

// Delete implements Store.
func (s *FileStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("key %q: %w", key, ErrNotFound)
	} else if err != nil {
		return fmt.Errorf("storage: key %q: %w", key, err)
	}
	return nil
}

// Keys implements Store.
func (s *FileStore) Keys() ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || strings.Contains(filepath.Base(p), ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(s.dir, p)
		if err != nil {
			return err
		}
		keys = append(keys, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// Size implements Store.
func (s *FileStore) Size() (uint64, error) {
	var n uint64
	err := filepath.WalkDir(s.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || strings.Contains(filepath.Base(p), ".tmp") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += uint64(info.Size())
		return nil
	})
	return n, err
}
