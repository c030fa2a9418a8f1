package ckptstore

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseServiceFrame drives DecodeFrame with arbitrary bytes. The
// invariants: no panic on any input, the payload is a view of the input
// bytes at its offset, and the codec is canonical — every accepted frame
// re-encodes to exactly the bytes that were decoded, and a round trip
// through Encode/Decode is a fixed point.
func FuzzParseServiceFrame(f *testing.F) {
	seeds := []*Frame{
		{Kind: KindRequest, Op: OpPut, Client: 3, ID: 17, Deadline: 1 << 20, Key: "rank000/seg000001", Payload: []byte("pages")},
		{Kind: KindRequest, Op: OpGet, Key: "commit/seq000004"},
		{Kind: KindRequest, Op: OpKeys},
		{Kind: KindRequest, Op: OpSize},
		{Kind: KindResponse, Op: OpPut, Status: StatusOverload, Client: 3, ID: 17},
		{Kind: KindResponse, Op: OpKeys, Payload: encodeKeys([]string{"a", "b"})},
		{Kind: KindResponse, Op: OpSize, Payload: encodeSize(12345)},
	}
	for _, s := range seeds {
		f.Add(s.Encode())
	}
	f.Add([]byte("CKSF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			if fr != nil {
				t.Fatal("error with non-nil frame")
			}
			return
		}
		// The payload is the input's tail after the header and key, and
		// a view of it capped at its own length rather than a copy.
		off := frameHeaderLen + len(fr.Key)
		if !bytes.Equal(fr.Payload, data[off:]) {
			t.Fatalf("payload %x, input bytes at offset %d are %x", fr.Payload, off, data[off:])
		}
		if len(fr.Payload) > 0 && (&fr.Payload[0] != &data[off] || cap(fr.Payload) != len(fr.Payload)) {
			t.Fatal("payload is not a capacity-capped view of the input")
		}
		// Canonical: accepted bytes re-encode identically.
		enc := fr.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, enc)
		}
		// And decoding the re-encode is a fixed point.
		fr2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical frame failed: %v", err)
		}
		if !bytes.Equal(fr2.Encode(), enc) {
			t.Fatal("second round trip diverged")
		}
	})
}

// FuzzDecodeKeys drives the Keys response payload parser: no panic on
// any input, and every accepted payload re-encodes to exactly its bytes.
func FuzzDecodeKeys(f *testing.F) {
	f.Add(encodeKeys(nil))
	f.Add(encodeKeys([]string{"a", "b"}))
	f.Add(encodeKeys([]string{"rank000/seg000001", "", "commit/seq000004"}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := decodeKeys(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v is not ErrBadFrame", err)
			}
			return
		}
		if enc := encodeKeys(keys); !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, enc)
		}
	})
}
