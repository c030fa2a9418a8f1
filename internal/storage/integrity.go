package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/wire"
)

// Integrity envelope: every segment persisted through an IntegrityStore
// is framed with a versioned header carrying the payload length and a
// CRC-32C, so torn writes and at-rest bit rot surface as a typed
// ErrCorrupt on Get instead of propagating garbage into a restore.
//
// Layout (little-endian):
//
//	offset  size  field
//	0       4     magic "ICSE" (Incremental Checkpoint Sealed Envelope)
//	4       4     version (1)
//	8       8     payload length
//	16      4     CRC-32C (Castagnoli) of the payload
//	20      n     payload
const (
	envelopeMagic   = "ICSE"
	envelopeVersion = 1
	envelopeHeader  = 20
)

// Seal frames data in an integrity envelope, returning a fresh slice.
func Seal(data []byte) []byte {
	return appendSeal(make([]byte, 0, envelopeHeader+len(data)), data)
}

// appendSeal appends data's integrity envelope to dst.
func appendSeal(dst, data []byte) []byte {
	le := binary.LittleEndian
	dst = append(dst, envelopeMagic...)
	dst = le.AppendUint32(dst, envelopeVersion)
	dst = le.AppendUint64(dst, uint64(len(data)))
	dst = le.AppendUint32(dst, wire.CRC32C(data))
	return append(dst, data...)
}

// Open verifies an envelope produced by Seal and returns the payload, a
// view into frame rather than a copy.
// Any structural mismatch — short frame, bad magic, unknown version,
// length mismatch (a torn write), checksum mismatch (bit rot) — reports
// ErrCorrupt with the reason wrapped in.
func Open(frame []byte) ([]byte, error) {
	r := wire.NewReader(frame, ErrCorrupt)
	r.Magic(envelopeMagic)
	if v := r.U32(); v != envelopeVersion {
		r.Fail("unsupported envelope version %d", v)
	}
	n, sum := r.U64(), r.U32()
	if uint64(r.Len()) != n {
		r.Fail("torn frame: %d payload bytes, header says %d", r.Len(), n)
	}
	payload := r.Bytes(r.Len())
	if wire.CRC32C(payload) != sum {
		r.Fail("CRC-32C mismatch")
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return payload, nil
}

// IntegrityStore wraps a Store, sealing every value on Put and verifying
// it on Get. Corruption detected on Get is reported as ErrCorrupt; the
// Stats counter records how many reads failed verification.
//
// Put seals into one buffer the store reuses for every value, which the
// Store contract makes safe: the inner store does not keep the envelope
// after its Put returns. A mutex serialises Puts over that buffer.
type IntegrityStore struct {
	inner Store

	mu      sync.Mutex
	sealBuf []byte

	corruptReads uint64
}

// NewIntegrityStore wraps inner with integrity envelopes.
func NewIntegrityStore(inner Store) *IntegrityStore {
	return &IntegrityStore{inner: inner}
}

// Put implements Store.
func (s *IntegrityStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealBuf = appendSeal(slices.Grow(s.sealBuf[:0], envelopeHeader+len(data)), data)
	return s.inner.Put(key, s.sealBuf)
}

// Get implements Store, verifying the envelope before returning.
func (s *IntegrityStore) Get(key string) ([]byte, error) {
	frame, err := s.inner.Get(key)
	if err != nil {
		return nil, err
	}
	payload, err := Open(frame)
	if err != nil {
		s.corruptReads++
		return nil, fmt.Errorf("key %q: %w", key, err)
	}
	return payload, nil
}

// Delete implements Store.
func (s *IntegrityStore) Delete(key string) error { return s.inner.Delete(key) }

// Keys implements Store.
func (s *IntegrityStore) Keys() ([]string, error) { return s.inner.Keys() }

// Size implements Store. It reports logical payload bytes — the framed
// size the sink holds, minus one envelope header per key — so stacking
// an IntegrityStore does not change what Size means to callers.
func (s *IntegrityStore) Size() (uint64, error) {
	n, err := s.inner.Size()
	if err != nil {
		return 0, err
	}
	keys, err := s.inner.Keys()
	if err != nil {
		return 0, err
	}
	if overhead := uint64(len(keys)) * envelopeHeader; n >= overhead {
		n -= overhead
	}
	return n, nil
}

// CorruptReads returns the number of Gets that failed verification.
func (s *IntegrityStore) CorruptReads() uint64 { return s.corruptReads }
