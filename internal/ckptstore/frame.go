// Package ckptstore is a deterministic, simulated checkpoint-store
// service: a leader/follower replication group fronted by an admission
// controller, running entirely on internal/des virtual time. Many
// clients (one per rank) speak a small binary frame protocol to a
// frontend that batches and write-coalesces segment Puts, replicates
// them to followers via quorum writes, sheds load with typed overload
// errors when saturated, degrades gracefully as replicas fail
// (sync-replicate → async-replicate → local-spill → refuse), and
// promotes the freshest follower when the leader crashes — resuming
// from the last quorum-acknowledged segment with ckpt.VerifyChain
// choosing the recovery line.
//
// The service exposes storage.Store through Client, so every existing
// consumer — the autonomic supervisor, two-phase commit, the chaos
// driver, ResilientStore retries — composes unchanged.
package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/storage"
	"repro/internal/wire"
)

// ErrBadFrame reports a service frame that does not parse: wrong magic,
// unknown version or op, truncated fields, or trailing bytes.
var ErrBadFrame = errors.New("ckptstore: malformed service frame")

// frameMagic opens every service frame ("CKSF": ChecKpoint Service
// Frame).
const frameMagic = "CKSF"

// frameVersion is the only wire version this codec accepts.
const frameVersion = 1

// Frame kinds.
const (
	// KindRequest marks a client→service frame.
	KindRequest = 0
	// KindResponse marks a service→client frame.
	KindResponse = 1
)

// Op identifies the storage operation a frame carries.
type Op uint8

// Service operations, one per storage.Store method.
const (
	OpPut Op = iota + 1
	OpGet
	OpDelete
	OpKeys
	OpSize
)

// String implements fmt.Stringer for diagnostics.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpKeys:
		return "keys"
	case OpSize:
		return "size"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is the outcome code carried by response frames. It is the wire
// projection of the storage error taxonomy: clients map it back to the
// sentinel errors with Err, so errors.Is classification survives the
// round trip through the service.
type Status uint8

// Response status codes.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusCorrupt
	StatusUnavailable
	StatusTransient
	StatusOverload
	StatusDeadline
)

// statusOf maps a storage-taxonomy error to its wire status. Overload
// must be checked before the generic transient class: ErrOverload wraps
// ErrTransient, and the more specific label is the one backpressure
// telemetry needs.
func statusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, storage.ErrOverload):
		return StatusOverload
	case errors.Is(err, storage.ErrDeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, storage.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, storage.ErrCorrupt):
		return StatusCorrupt
	case errors.Is(err, storage.ErrTransient):
		return StatusTransient
	default:
		return StatusUnavailable
	}
}

// Err maps a wire status back to the storage error taxonomy, preserving
// the classification the service computed: overload stays transient
// (retryable), deadline stays permanent.
func (st Status) Err(op Op, key string) error {
	switch st {
	case StatusOK:
		return nil
	case StatusNotFound:
		return fmt.Errorf("ckptstore: %s %q: %w", op, key, storage.ErrNotFound)
	case StatusCorrupt:
		return fmt.Errorf("ckptstore: %s %q: %w", op, key, storage.ErrCorrupt)
	case StatusTransient:
		return fmt.Errorf("ckptstore: %s %q: %w", op, key, storage.ErrTransient)
	case StatusOverload:
		return fmt.Errorf("ckptstore: %s %q: %w", op, key, storage.ErrOverload)
	case StatusDeadline:
		return fmt.Errorf("ckptstore: %s %q: %w", op, key, storage.ErrDeadlineExceeded)
	default:
		return fmt.Errorf("ckptstore: %s %q: %w", op, key, storage.ErrUnavailable)
	}
}

// Frame is one request or response on the client↔service wire.
//
// Layout (little-endian, fixed header then two length-prefixed fields):
//
//	magic    [4]byte  "CKSF"
//	version  uint8    1
//	kind     uint8    0 = request, 1 = response
//	op       uint8    OpPut..OpSize
//	status   uint8    response outcome (0 in requests)
//	client   uint32   issuing client id
//	id       uint64   per-client request sequence number
//	deadline int64    virtual-time deadline in ns (0 = none; >= 0)
//	keylen   uint16   + key bytes
//	paylen   uint32   + payload bytes
//
// The codec is canonical: for every frame Decode accepts,
// Encode(Decode(b)) reproduces b byte-for-byte (the fuzz invariant).
type Frame struct {
	Kind     uint8
	Op       Op
	Status   Status
	Client   uint32
	ID       uint64
	Deadline des.Time
	Key      string
	Payload  []byte
}

// frameHeaderLen is the fixed-size prefix before the two variable
// fields: magic(4) ver(1) kind(1) op(1) status(1) client(4) id(8)
// deadline(8) keylen(2) paylen(4).
const frameHeaderLen = 4 + 1 + 1 + 1 + 1 + 4 + 8 + 8 + 2 + 4

// Encode serialises the frame into a fresh slice.
func (f *Frame) Encode() []byte {
	return f.appendEncode(make([]byte, 0, frameHeaderLen+len(f.Key)+len(f.Payload)))
}

// appendEncode appends the frame's encoding to out.
func (f *Frame) appendEncode(out []byte) []byte {
	out = append(out, frameMagic...)
	out = append(out, frameVersion, f.Kind, uint8(f.Op), uint8(f.Status))
	out = binary.LittleEndian.AppendUint32(out, f.Client)
	out = binary.LittleEndian.AppendUint64(out, f.ID)
	out = binary.LittleEndian.AppendUint64(out, uint64(f.Deadline))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(f.Key)))
	out = append(out, f.Key...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(f.Payload)))
	out = append(out, f.Payload...)
	return out
}

// DecodeFrame parses one frame, rejecting anything Encode could not
// have produced. The returned Payload is a view into b, not a copy (nil
// when the payload is empty): the caller must not modify b while the
// frame is in use, and owns the payload exactly when it owns b.
func DecodeFrame(b []byte) (*Frame, error) {
	r := wire.NewReader(b, ErrBadFrame)
	r.Magic(frameMagic)
	if v := r.U8(); v != frameVersion {
		r.Fail("unknown version %d", v)
	}
	f := &Frame{Kind: r.U8(), Op: Op(r.U8()), Status: Status(r.U8())}
	if f.Kind != KindRequest && f.Kind != KindResponse {
		r.Fail("unknown kind %d", f.Kind)
	}
	if f.Op < OpPut || f.Op > OpSize {
		r.Fail("unknown op %d", uint8(f.Op))
	}
	if f.Status > StatusDeadline {
		r.Fail("unknown status %d", uint8(f.Status))
	}
	if f.Kind == KindRequest && f.Status != StatusOK {
		r.Fail("request carries status %d", uint8(f.Status))
	}
	f.Client, f.ID, f.Deadline = r.U32(), r.U64(), des.Time(r.U64())
	if f.Deadline < 0 {
		r.Fail("negative deadline")
	}
	f.Key = string(r.Bytes(int(r.U16())))
	if payload := r.Bytes(int(r.U32())); len(payload) > 0 {
		f.Payload = payload
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// encodeKeys packs a key list into a response payload: u32 count, then
// per key a u16 length and the bytes.
func encodeKeys(keys []string) []byte {
	n := 4
	for _, k := range keys {
		n += 2 + len(k)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(k)))
		out = append(out, k...)
	}
	return out
}

// decodeKeys unpacks a Keys response payload.
func decodeKeys(b []byte) ([]string, error) {
	r := wire.NewReader(b, ErrBadFrame)
	count := r.U32()
	keys := make([]string, 0, min(count, 1024))
	for i := uint32(0); i < count && r.Err() == nil; i++ {
		keys = append(keys, string(r.Bytes(int(r.U16()))))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return keys, nil
}

// encodeSize packs a Size response payload.
func encodeSize(n uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, n)
}

// decodeSize unpacks a Size response payload.
func decodeSize(b []byte) (uint64, error) {
	r := wire.NewReader(b, ErrBadFrame)
	n := r.U64()
	if err := r.Done(); err != nil {
		return 0, err
	}
	return n, nil
}
