package redundancy

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/storage"
	"repro/internal/wire"
)

func sampleFrame() *ParityFrame {
	return &ParityFrame{
		Group: 3,
		Seq:   41,
		Shard: 2,
		K:     2,
		M:     1,
		Members: []MemberRef{
			{Rank: 4, Length: 100, CRC: wire.CRC32C([]byte("a"))},
			{Rank: 9, Length: 90, CRC: wire.CRC32C([]byte("b"))},
		},
		Payload: bytes.Repeat([]byte{0xAB}, 100),
	}
}

func TestParityFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	enc, err := EncodeParityFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseParityFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Group != f.Group || got.Seq != f.Seq || got.Shard != f.Shard ||
		got.K != f.K || got.M != f.M || len(got.Members) != 2 ||
		got.Members[1] != f.Members[1] || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
	// The encoding is canonical: re-encoding a parsed frame reproduces
	// the bytes.
	enc2, err := EncodeParityFrame(got)
	if err != nil || !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encode diverged: %v", err)
	}
	// Empty payloads are legal (an empty checkpoint line).
	f.Payload = nil
	if enc, err = EncodeParityFrame(f); err != nil {
		t.Fatal(err)
	}
	if got, err = ParseParityFrame(enc); err != nil || len(got.Payload) != 0 {
		t.Fatalf("empty payload: %v", err)
	}
}

func TestEncodeParityFrameRejects(t *testing.T) {
	bad := []*ParityFrame{
		{K: 0, M: 1, Shard: 0},
		{K: 2, M: 0, Shard: 0},
		{K: 200, M: 56, Shard: 0},
		{K: 2, M: 1, Shard: 3, Members: make([]MemberRef, 2)},
		{K: 2, M: 1, Shard: -1, Members: make([]MemberRef, 2)},
		{K: 2, M: 1, Shard: 2, Members: make([]MemberRef, 1)},
		{K: 2, M: 1, Shard: 2, Members: []MemberRef{{Rank: -1}, {}}},
	}
	for i, f := range bad {
		if _, err := EncodeParityFrame(f); err == nil {
			t.Errorf("bad frame %d accepted", i)
		}
	}
}

// Every single-bit flip anywhere in the frame must be rejected — the CRC
// trailer covers the whole frame, and the rebuild path counts on that to
// classify a damaged shard as corrupt instead of rebuilding garbage.
func TestParseParityFrameDetectsEveryBitFlip(t *testing.T) {
	enc, err := EncodeParityFrame(sampleFrame())
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		if _, err := ParseParityFrame(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		} else if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("flip at byte %d not classified corrupt: %v", i, err)
		}
	}
}

func TestParseParityFrameRejectsStructuralDamage(t *testing.T) {
	enc, _ := EncodeParityFrame(sampleFrame())
	cases := map[string][]byte{
		"empty":     nil,
		"tiny":      []byte("CKPF"),
		"truncated": enc[:len(enc)-5],
		"trailing":  append(append([]byte(nil), enc...), 0),
	}
	for name, data := range cases {
		_, err := ParseParityFrame(data)
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if !errors.Is(err, ErrBadParityFrame) || !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: error %v misses a sentinel", name, err)
		}
	}
}

// TestParseParityFrameAllocsIndependentOfPayload pins the view decode:
// the payload is never copied, so parsing a 64 KiB shard costs the same
// allocations, and about the same bytes, as parsing a 16-byte one.
func TestParseParityFrameAllocsIndependentOfPayload(t *testing.T) {
	parse := func(n int) (allocs float64, bytesPerOp uint64) {
		f := sampleFrame()
		f.Payload = bytes.Repeat([]byte{0x5A}, n)
		enc, err := EncodeParityFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := ParseParityFrame(enc); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(100, run)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := parse(16)
	largeAllocs, largeBytes := parse(64 << 10)
	if smallAllocs != largeAllocs {
		t.Fatalf("ParseParityFrame allocates %v/op for a 16 B payload but %v/op for 64 KiB", smallAllocs, largeAllocs)
	}
	// 1 KiB/op of slack covers the runtime's own allocations; a payload
	// copy would cost 64.
	if largeBytes > smallBytes+1024 {
		t.Fatalf("ParseParityFrame allocates %d B/op for a 64 KiB payload, %d B/op for 16 B: the payload is copied", largeBytes, smallBytes)
	}
}

// FuzzParseParityFrame holds the parser to its contract: arbitrary bytes
// never panic, and any frame that parses re-encodes to the same bytes
// (the canonical-form invariant the storage layer depends on).
func FuzzParseParityFrame(f *testing.F) {
	if enc, err := EncodeParityFrame(sampleFrame()); err == nil {
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(append([]byte(nil), enc...), 0xFF))
	}
	one := &ParityFrame{
		Group: 0, Seq: 0, Shard: 1, K: 1, M: 1,
		Members: []MemberRef{{Rank: 0, Length: 0, CRC: 0}},
	}
	if enc, err := EncodeParityFrame(one); err == nil {
		f.Add(enc)
	}
	f.Add([]byte("CKPF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := ParseParityFrame(data)
		if err != nil {
			if pf != nil {
				t.Fatal("error with non-nil frame")
			}
			if !errors.Is(err, ErrBadParityFrame) || !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("parse error %v misses a sentinel", err)
			}
			return
		}
		enc, err := EncodeParityFrame(pf)
		if err != nil {
			t.Fatalf("parsed frame does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("re-encode diverged from canonical input")
		}
	})
}
