package redundancy

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/wire"
)

// Parity-shard wire/storage frame. Every L2 shard placed on a partner
// rank's local store is wrapped in a canonical, fuzzable frame that
// records the parity-group geometry, which member segments the shard
// protects (rank, unpadded length, CRC-32C of the original bytes), and a
// CRC over the shard payload itself. The member CRCs let the rebuild
// path verify a reconstructed segment bit-for-bit before handing it to
// the restore machinery — a corrupt parity shard degrades the read to
// the next tier instead of producing a torn restore.
//
// Layout (little-endian):
//
//	magic   "CKPF" (4 bytes)
//	version u8    2
//	group   u32   parity-group id
//	seq     u64   checkpoint line the shard protects
//	shard   u8    shard index in [0, k+m): [0,k) data, [k,k+m) parity
//	k       u8    data shards per group
//	m       u8    parity shards per group
//	members k × { rank u32, origLen u32, crc u32 }
//	payload u32 length + bytes (padded shard)
//	crc     u32   CRC-32C of everything above

// ErrBadParityFrame reports a parity frame that does not parse: wrong
// magic, unknown version, truncated fields, inconsistent geometry, or
// trailing bytes. Parse failures wrap both this and storage.ErrCorrupt,
// so the tiered read path classifies them like any other corrupt read.
var ErrBadParityFrame = errors.New("redundancy: malformed parity frame")

const (
	parityMagic = "CKPF"
	// parityVersion 2 is the little-endian layout; version 1 frames were
	// big-endian and are rejected rather than misread.
	parityVersion = 2
)

// errBadParity is the class of every parse failure: both sentinels.
var errBadParity = fmt.Errorf("%w: %w", ErrBadParityFrame, storage.ErrCorrupt)

// MemberRef describes one member segment a parity shard protects.
type MemberRef struct {
	// Rank owns the protected segment.
	Rank int
	// Length is the unpadded byte length of the original segment;
	// reconstruction truncates the padded rebuild back to it.
	Length uint32
	// CRC is the CRC-32C (Castagnoli) of the original segment bytes.
	CRC uint32
}

// ParityFrame is one framed L2 shard.
type ParityFrame struct {
	// Group is the parity-group id.
	Group uint32
	// Seq is the checkpoint line the shard belongs to.
	Seq uint64
	// Shard is the shard index: [0, K) are data shards, [K, K+M) parity.
	Shard int
	// K and M are the group geometry.
	K, M int
	// Members lists the protected segments, one per data shard, in
	// shard order.
	Members []MemberRef
	// Payload is the padded shard bytes.
	Payload []byte
}

// EncodeParityFrame serializes a frame in canonical form.
func EncodeParityFrame(f *ParityFrame) ([]byte, error) {
	if f.K < 1 || f.K > 255 || f.M < 1 || f.M > 255 || f.K+f.M > 255 {
		return nil, fmt.Errorf("redundancy: frame geometry k=%d m=%d out of range", f.K, f.M)
	}
	if f.Shard < 0 || f.Shard >= f.K+f.M {
		return nil, fmt.Errorf("redundancy: shard index %d outside [0, %d)", f.Shard, f.K+f.M)
	}
	if len(f.Members) != f.K {
		return nil, fmt.Errorf("redundancy: frame lists %d members, want k=%d", len(f.Members), f.K)
	}
	size := 4 + 1 + 4 + 8 + 1 + 1 + 1 + 12*f.K + 4 + len(f.Payload) + 4
	buf := make([]byte, 0, size)
	buf = append(buf, parityMagic...)
	buf = append(buf, parityVersion)
	buf = binary.LittleEndian.AppendUint32(buf, f.Group)
	buf = binary.LittleEndian.AppendUint64(buf, f.Seq)
	buf = append(buf, byte(f.Shard), byte(f.K), byte(f.M))
	for _, m := range f.Members {
		if m.Rank < 0 || m.Rank > 1<<31-1 {
			return nil, fmt.Errorf("redundancy: member rank %d out of range", m.Rank)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rank))
		buf = binary.LittleEndian.AppendUint32(buf, m.Length)
		buf = binary.LittleEndian.AppendUint32(buf, m.CRC)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, f.Payload...)
	buf = binary.LittleEndian.AppendUint32(buf, wire.CRC32C(buf))
	return buf, nil
}

// ParseParityFrame decodes a canonical parity frame. It never panics on
// arbitrary input; any malformation — including a CRC mismatch — is
// reported as a wrapped storage.ErrCorrupt. The returned Payload is a
// view into data, not a copy: the caller must not modify data while the
// frame is in use.
func ParseParityFrame(data []byte) (*ParityFrame, error) {
	// The CRC trailer covers everything before it; checking it first
	// keeps the field parse free of corruption cases.
	trailer := wire.NewReader(data, errBadParity)
	body := trailer.Bytes(trailer.Len() - 4)
	if got, want := wire.CRC32C(body), trailer.U32(); got != want {
		trailer.Fail("frame crc %08x, want %08x", got, want)
	}
	if err := trailer.Done(); err != nil {
		return nil, err
	}
	r := wire.NewReader(body, errBadParity)
	r.Magic(parityMagic)
	if v := r.U8(); v != parityVersion {
		r.Fail("unknown version %d", v)
	}
	f := &ParityFrame{Group: r.U32(), Seq: r.U64(), Shard: int(r.U8()), K: int(r.U8()), M: int(r.U8())}
	if f.K < 1 || f.M < 1 || f.K+f.M > 255 {
		r.Fail("geometry k=%d m=%d out of range", f.K, f.M)
	}
	if f.Shard >= f.K+f.M {
		r.Fail("shard index %d outside [0, %d)", f.Shard, f.K+f.M)
	}
	f.Members = make([]MemberRef, f.K)
	for i := range f.Members {
		f.Members[i] = MemberRef{Rank: int(r.U32()), Length: r.U32(), CRC: r.U32()}
	}
	f.Payload = r.Bytes(int(r.U32()))
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}
