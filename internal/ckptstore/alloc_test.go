package ckptstore

import (
	"bytes"
	"runtime"
	"testing"
)

// TestDecodeFrameAllocsIndependentOfPayload pins the view decode: the
// payload is never copied, so decoding a 64 KiB Put costs the same
// allocations, and about the same bytes, as decoding a 16-byte one.
func TestDecodeFrameAllocsIndependentOfPayload(t *testing.T) {
	decode := func(n int) (allocs float64, bytesPerOp uint64) {
		b := (&Frame{Kind: KindRequest, Op: OpPut, Client: 1, ID: 1, Key: "rank000/seg000001",
			Payload: bytes.Repeat([]byte{0x5A}, n)}).Encode()
		run := func() {
			if _, err := DecodeFrame(b); err != nil {
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
	smallAllocs, smallBytes := decode(16)
	largeAllocs, largeBytes := decode(64 << 10)
	if smallAllocs != largeAllocs {
		t.Fatalf("DecodeFrame allocates %v/op for a 16 B payload but %v/op for 64 KiB", smallAllocs, largeAllocs)
	}
	// 1 KiB/op of slack covers the runtime's own allocations; a payload
	// copy would cost 64.
	if largeBytes > smallBytes+1024 {
		t.Fatalf("DecodeFrame allocates %d B/op for a 64 KiB payload, %d B/op for 16 B: the payload is copied", largeBytes, smallBytes)
	}
}

// TestZeroAllocDecodeSize pins the Size payload parse: a successful
// decode allocates nothing.
func TestZeroAllocDecodeSize(t *testing.T) {
	payload := encodeSize(12345)
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := decodeSize(payload); err != nil || n != 12345 {
			t.Fatalf("decodeSize = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decodeSize allocates %v/op, want 0", allocs)
	}
}
