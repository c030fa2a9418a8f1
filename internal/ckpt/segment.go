// Package ckpt implements the mechanism the paper argues is feasible:
// automatic, user-transparent incremental checkpointing. It builds on the
// same write-protection machinery as the tracker — each checkpoint saves
// the pages dirtied since the previous one (the delta), with periodic full
// checkpoints bounding the recovery chain — plus coordinated global
// checkpoints across MPI ranks, restore/rollback, the memory-exclusion
// optimisation for unmapped pages, and a copy-on-write accounting model
// that quantifies the cost of checkpointing in the middle of a processing
// burst (the paper's §6.2 observation).
package ckpt

import (
	"encoding/binary"
	"errors"

	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/wire"
)

// Kind distinguishes full from incremental segments.
type Kind uint8

const (
	// Full segments contain every mapped checkpointable page.
	Full Kind = iota
	// Incremental segments contain only pages dirtied since the
	// previous segment.
	Incremental
)

// String returns "full" or "incremental".
func (k Kind) String() string {
	if k == Full {
		return "full"
	}
	return "incremental"
}

// RegionInfo records one mapped region at capture time, enough to recreate
// the address-space layout on restore.
type RegionInfo struct {
	Start uint64
	Size  uint64
	Kind  mem.Kind
}

// PageRecord is one saved page. Data is nil in content-free segments
// (phantom address spaces, used for volume accounting at full scale) and
// for all-zero pages that were never materialised.
type PageRecord struct {
	Addr uint64
	Data []byte
}

// Segment is one checkpoint of one rank.
type Segment struct {
	Rank        int
	Seq         uint64 // monotonically increasing per rank
	Epoch       uint64 // Seq of the base full segment of this chain
	Kind        Kind
	ContentFree bool
	PageSize    uint64
	TakenAt     des.Time
	Regions     []RegionInfo
	Pages       []PageRecord
}

// PageBytes returns the page payload volume (pages x page size), the
// quantity the paper's Incremental Bandwidth measures.
func (s *Segment) PageBytes() uint64 {
	return uint64(len(s.Pages)) * s.PageSize
}

const (
	segmentMagic   = "ICKP"
	segmentVersion = 1
	// page record header values
	pageZero    = 0 // never-written page, elided
	pageHasData = 1 // raw page bytes follow
	pageRLE     = 2 // u32 stream length + RLE stream follow
)

// Encode serialises the segment to a portable little-endian byte stream
// with raw (uncompressed) page payloads, into a fresh slice sized exactly
// to the encoding.
func (s *Segment) Encode() []byte {
	enc, _ := s.appendEncode(make([]byte, 0, s.encodedLen(false)), false)
	return enc
}

// EncodeCompressed serialises the segment with per-page RLE compression
// (pages that do not shrink stay raw). It additionally returns the page
// payload volume actually persisted — the quantity a bandwidth-limited
// sink has to absorb.
func (s *Segment) EncodeCompressed() ([]byte, uint64) {
	return s.appendEncode(make([]byte, 0, s.encodedLen(true)), true)
}

// segmentHeaderLen is the fixed prefix before the region table: magic,
// version, rank, seq, epoch, kind, content-free flag, page size, taken-at
// and the region count.
const segmentHeaderLen = 4 + 4 + 4 + 8 + 8 + 1 + 1 + 8 + 8 + 4

// encodedLen returns the length of the segment's encoding: exact for
// raw payloads, an upper bound when compress is set (an RLE record
// carries a 4-byte stream length and is kept only when it shrinks the
// page).
func (s *Segment) encodedLen(compress bool) int {
	n := segmentHeaderLen + 17*len(s.Regions) + 8 + 8*len(s.Pages)
	if s.ContentFree {
		return n
	}
	n += len(s.Pages) // one flag byte per page
	for _, p := range s.Pages {
		if p.Data != nil {
			n += len(p.Data)
			if compress {
				n += 4
			}
		}
	}
	return n
}

// appendEncode appends the segment's encoding to dst and returns the
// extended slice plus the page payload volume written. With enough
// spare capacity in dst (see encodedLen) it allocates nothing on the
// raw path, which is how a Checkpointer reuses one buffer across lines.
func (s *Segment) appendEncode(dst []byte, compress bool) ([]byte, uint64) {
	var payload uint64
	le := binary.LittleEndian
	buf := append(dst, segmentMagic...)
	buf = le.AppendUint32(buf, segmentVersion)
	buf = le.AppendUint32(buf, uint32(s.Rank))
	buf = le.AppendUint64(buf, s.Seq)
	buf = le.AppendUint64(buf, s.Epoch)
	buf = append(buf, byte(s.Kind))
	if s.ContentFree {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = le.AppendUint64(buf, s.PageSize)
	buf = le.AppendUint64(buf, uint64(s.TakenAt))
	buf = le.AppendUint32(buf, uint32(len(s.Regions)))
	for _, r := range s.Regions {
		buf = le.AppendUint64(buf, r.Start)
		buf = le.AppendUint64(buf, r.Size)
		buf = append(buf, byte(r.Kind))
	}
	buf = le.AppendUint64(buf, uint64(len(s.Pages)))
	for _, p := range s.Pages {
		buf = le.AppendUint64(buf, p.Addr)
		if s.ContentFree {
			continue
		}
		if p.Data == nil {
			buf = append(buf, pageZero) // zero page, elided
			continue
		}
		if compress {
			if c := rleCompress(p.Data); c != nil {
				buf = append(buf, pageRLE)
				buf = le.AppendUint32(buf, uint32(len(c)))
				buf = append(buf, c...)
				payload += uint64(len(c))
				continue
			}
		}
		buf = append(buf, pageHasData)
		buf = append(buf, p.Data...)
		payload += uint64(len(p.Data))
	}
	return buf, payload
}

// errBadSegment is the class of every segment and RLE-stream parse
// failure.
var errBadSegment = errors.New("ckpt: malformed segment")

// DecodeSegment parses a segment encoded by Encode, validating structure
// and bounds. It decodes in place: the Data of every raw page aliases
// data, so the caller must not modify data while the segment is in use.
// RLE-compressed pages are decompressed into fresh slices.
func DecodeSegment(data []byte) (*Segment, error) {
	r := wire.NewReader(data, errBadSegment)
	r.Magic(segmentMagic)
	if v := r.U32(); v != segmentVersion {
		r.Fail("unsupported version %d", v)
	}
	s := &Segment{
		Rank:        int(r.U32()),
		Seq:         r.U64(),
		Epoch:       r.U64(),
		Kind:        Kind(r.U8()),
		ContentFree: r.U8() != 0,
		PageSize:    r.U64(),
		TakenAt:     des.Time(r.U64()),
	}
	if s.Kind > Incremental {
		r.Fail("bad segment kind %d", s.Kind)
	}
	if s.PageSize == 0 || s.PageSize > 1<<30 {
		r.Fail("implausible page size %d", s.PageSize)
	}
	nr := r.U32()
	if uint64(nr)*17 > uint64(r.Len()) {
		r.Fail("region count %d exceeds segment size", nr)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.Regions = make([]RegionInfo, nr)
	for i := range s.Regions {
		s.Regions[i] = RegionInfo{Start: r.U64(), Size: r.U64(), Kind: mem.Kind(r.U8())}
	}
	np := r.U64()
	// Every page record costs at least its address (plus a flag byte
	// unless content-free), so np is bounded by the bytes actually left.
	minRec := uint64(9)
	if s.ContentFree {
		minRec = 8
	}
	if np > uint64(r.Len())/minRec {
		r.Fail("page count %d exceeds segment size", np)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	s.Pages = make([]PageRecord, 0, np)
	for i := uint64(0); i < np && r.Err() == nil; i++ {
		p := PageRecord{Addr: r.U64()}
		if !s.ContentFree {
			switch flag := r.U8(); flag {
			case pageZero:
				// elided zero page
			case pageHasData:
				p.Data = r.Bytes(int(s.PageSize))
			case pageRLE:
				stream := r.Bytes(int(r.U32()))
				if r.Err() != nil {
					break
				}
				var err error
				if p.Data, err = rleDecompress(stream, int(s.PageSize)); err != nil {
					return nil, err
				}
			default:
				r.Fail("bad page flag %d", flag)
			}
		}
		s.Pages = append(s.Pages, p)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}
