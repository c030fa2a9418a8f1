package ckpt

import "repro/internal/wire"

// Run-length encoding for page payloads. Checkpointed pages of scientific
// codes are full of repeated values (zero-initialised arrays, constant
// fills, padding), and the paper's related work ([18]) shows how much
// checkpoint-size optimisation matters; this codec captures the cheap
// part of that win without external dependencies.
//
// Stream grammar (little-endian lengths):
//
//	op 0x00: run     — u16 length, 1 value byte
//	op 0x01: literal — u16 length, length raw bytes
//
// Runs shorter than rleMinRun are folded into literals.
const rleMinRun = 4

// rleCompress encodes src; it returns nil when compression would not
// shrink the data, letting callers fall back to the raw page.
func rleCompress(src []byte) []byte {
	out := make([]byte, 0, len(src)/2)
	var lit []byte // pending literal bytes
	flushLit := func() {
		for len(lit) > 0 {
			n := min(len(lit), 0xFFFF)
			out = append(out, 0x01, byte(n), byte(n>>8))
			out = append(out, lit[:n]...)
			lit = lit[n:]
		}
	}
	i := 0
	for i < len(src) {
		j := i + 1
		for j < len(src) && src[j] == src[i] && j-i < 0xFFFF {
			j++
		}
		if runLen := j - i; runLen >= rleMinRun {
			flushLit()
			out = append(out, 0x00, byte(runLen), byte(runLen>>8), src[i])
		} else {
			lit = append(lit, src[i:j]...)
		}
		i = j
		if len(out)+len(lit) >= len(src) {
			return nil // not shrinking; bail out early
		}
	}
	flushLit()
	if len(out) >= len(src) {
		return nil
	}
	return out
}

// rleDecompress decodes a stream produced by rleCompress into a buffer of
// exactly want bytes.
func rleDecompress(src []byte, want int) ([]byte, error) {
	r := wire.NewReader(src, errBadSegment)
	out := make([]byte, 0, want)
	for r.Len() > 0 {
		switch op, n := r.U8(), int(r.U16()); op {
		case 0x00:
			v := r.U8()
			for k := 0; k < n; k++ {
				out = append(out, v)
			}
		case 0x01:
			out = append(out, r.Bytes(n)...)
		default:
			r.Fail("bad RLE opcode %#x", op)
		}
		if len(out) > want {
			r.Fail("RLE output exceeds page size")
		}
	}
	if len(out) != want {
		r.Fail("RLE output %d bytes, want %d", len(out), want)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// pageHash is FNV-1a over a page's contents, used for unchanged-content
// deduplication. A nil (zero) page hashes to the hash of pageSize zero
// bytes, computed without materialising them.
func pageHash(data []byte, pageSize uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if data == nil {
		for i := uint64(0); i < pageSize; i++ {
			h ^= 0
			h *= prime64
		}
		return h
	}
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
