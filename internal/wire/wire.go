// Package wire is the one framing primitive under every checkpoint byte
// format: the ICKP segment and its RLE page stream, the GCMT commit
// marker, the CKSF service frame and its payloads, the CKPF parity frame
// and the ICSE integrity envelope. Each format keeps its own field
// layout and error class; wire supplies the parts they used to
// re-implement — a bounds-checked little-endian cursor and the
// CRC-32C (Castagnoli) checksum.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the CRC-32C (Castagnoli) checksum of b.
func CRC32C(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Reader is a bounds-checked little-endian cursor over a byte slice.
// Its first failure is sticky: it is recorded once, wrapping the
// caller's sentinel error class, and every later read returns a zero
// value without advancing, so a decoder reads all its fields and checks
// Err (or Done) once instead of after every field. Reader is a value
// type; a decoder keeps it on the stack and allocates nothing for it.
type Reader struct {
	b     []byte
	off   int
	class error
	err   error
}

// NewReader returns a Reader over b whose errors wrap class, which must
// be non-nil.
func NewReader(b []byte, class error) Reader {
	return Reader{b: b, class: class}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes; zero once the reader failed.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Fail records a decoder-detected malformation as the reader's error,
// unless an earlier one is already recorded. The reader is exhausted
// afterwards.
func (r *Reader) Fail(format string, args ...any) {
	if r.err != nil {
		return
	}
	r.err = fmt.Errorf("%w: %s", r.class, fmt.Sprintf(format, args...))
	r.off = len(r.b)
}

// Done fails the reader if bytes remain unread and returns its error.
func (r *Reader) Done() error {
	if n := r.Len(); n > 0 {
		r.Fail("%d trailing bytes", n)
	}
	return r.err
}

// Bytes consumes the next n bytes and returns them as a view into the
// input, capacity-capped at n so an append cannot overwrite what
// follows. It returns nil, failing the reader, when fewer than n bytes
// remain (or n is negative).
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > r.Len() {
		r.Fail("truncated at offset %d (need %d of %d)", r.off, n, len(r.b))
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Magic consumes len(m) bytes and fails the reader unless they equal m.
func (r *Reader) Magic(m string) {
	if got := r.Bytes(len(m)); got != nil && string(got) != m {
		r.Fail("bad magic %q", got)
	}
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 consumes a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
