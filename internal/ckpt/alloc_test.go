package ckpt

import (
	"bytes"
	"testing"
)

func allocSegment() *Segment {
	s := &Segment{
		Rank: 2, Seq: 9, Epoch: 5, Kind: Incremental, PageSize: 4096,
		Regions: []RegionInfo{{Start: 0x10000, Size: 64 * 4096}},
	}
	for i := 0; i < 64; i++ {
		p := PageRecord{Addr: 0x10000 + uint64(i)*4096}
		if i%8 != 0 { // every eighth page is an elided zero page
			p.Data = bytes.Repeat([]byte{byte(i)}, 4096)
		}
		s.Pages = append(s.Pages, p)
	}
	return s
}

// TestZeroAllocSegmentEncode pins the checkpointer's encode step: into a
// buffer already grown to the segment's encoded length, appendEncode
// allocates nothing, and produces exactly Encode's bytes.
func TestZeroAllocSegmentEncode(t *testing.T) {
	s := allocSegment()
	buf := make([]byte, 0, s.encodedLen(false))
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = s.appendEncode(buf[:0], false)
	})
	if allocs != 0 {
		t.Fatalf("appendEncode into a warmed buffer allocates %v/op, want 0", allocs)
	}
	if len(buf) != s.encodedLen(false) || !bytes.Equal(buf, s.Encode()) {
		t.Fatalf("appendEncode produced %d bytes, encodedLen %d, or differs from Encode", len(buf), s.encodedLen(false))
	}
	if enc, _ := s.EncodeCompressed(); len(enc) > s.encodedLen(true) {
		t.Fatalf("compressed encoding %d bytes exceeds its bound %d", len(enc), s.encodedLen(true))
	}
}

// TestDecodeSegmentViewsRawPages pins the in-place decode: raw page
// payloads alias the input rather than copying it.
func TestDecodeSegmentViewsRawPages(t *testing.T) {
	enc := allocSegment().Encode()
	seg, err := DecodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	p := seg.Pages[1]
	aliased := false
	for i := range enc {
		aliased = aliased || &enc[i] == &p.Data[0]
	}
	if !aliased {
		t.Fatal("raw page Data does not alias the encoded input")
	}
	if cap(p.Data) != len(p.Data) {
		t.Fatalf("page view has spare capacity %d: an append could overwrite the next record", cap(p.Data)-len(p.Data))
	}
}

// TestZeroAllocDecodeCommitMarker pins the commit-marker parse: the
// wire.Reader stays on the stack, so a successful decode allocates
// nothing.
func TestZeroAllocDecodeCommitMarker(t *testing.T) {
	enc := EncodeCommitMarker(CommitMarker{Seq: 42, Ranks: 64, At: 9})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeCommitMarker(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeCommitMarker allocates %v/op, want 0", allocs)
	}
}
