// Package storagetest checks storage.Store implementations against the
// interface's buffer-ownership contract: Put does not keep its data
// argument after it returns, and Get returns a slice the caller owns.
// Callers rely on both halves — checkpointers and integrity envelopes
// encode into buffers they reuse for the next Put, and segment decoding
// returns views into the bytes Get handed back.
package storagetest

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// Ownership checks both halves of the contract on a store built by
// newStore. It puts two values through one reused buffer, scribbling
// over the buffer after each Put, and mutates every Get result before
// reading the key again; the stored values must never change.
func Ownership(t *testing.T, newStore func(t *testing.T) storage.Store) {
	t.Helper()
	s := newStore(t)
	// The second value is the shorter, so a buffer a wrapper reuses for
	// it is overwritten in place rather than regrown.
	keys := []string{"ownership/a", "ownership/b"}
	want := [][]byte{pattern(1, 513), pattern(7, 300)}
	buf := make([]byte, 0, 1024)
	for i, key := range keys {
		buf = append(buf[:0], want[i]...)
		if err := s.Put(key, buf); err != nil {
			t.Fatalf("Put(%q): %v", key, err)
		}
		scribble(buf)
	}
	for i, key := range keys {
		got, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("Get(%q) after the Put buffer was reused and mutated: stored value changed", key)
		}
	}
	for _, key := range keys {
		GetOwnership(t, s, key)
	}
}

// GetOwnership checks the Get half of the contract on a store that
// already holds key — the form for read-only stores such as recovery
// views. It reads key three times, mutating each result, and requires
// every read to return the first read's bytes.
func GetOwnership(t *testing.T, s storage.Store, key string) {
	t.Helper()
	first, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if len(first) == 0 {
		t.Fatalf("Get(%q) returned no bytes; the check needs a non-empty value", key)
	}
	want := bytes.Clone(first)
	scribble(first)
	for i := 0; i < 2; i++ {
		got, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get(%q) again: %v", key, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after mutating an earlier Get result: stored value changed", key)
		}
		scribble(got)
	}
}

// pattern returns n bytes that differ from their neighbours, so a
// torn, shifted or partially overwritten copy cannot compare equal.
func pattern(seed byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i*31)
	}
	return out
}

// scribble overwrites every byte of b.
func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}
