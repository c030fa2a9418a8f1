package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

var errTest = errors.New("test: malformed")

// input is the byte stream every Reader case reads from: 0x01, 0x02, ...
var input = []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}

// readerCases reads n bytes of input with one Reader method; want is the
// value read from the whole n bytes, zero what a failed reader returns.
var readerCases = []struct {
	name       string
	n          int
	read       func(*Reader) any
	want, zero any
}{
	{"Magic", 4, func(r *Reader) any { r.Magic("\x01\x02\x03\x04"); return nil }, nil, nil},
	{"U8", 1, func(r *Reader) any { return r.U8() }, uint8(0x01), uint8(0)},
	{"U16", 2, func(r *Reader) any { return r.U16() }, uint16(0x0201), uint16(0)},
	{"U32", 4, func(r *Reader) any { return r.U32() }, uint32(0x04030201), uint32(0)},
	{"U64", 8, func(r *Reader) any { return r.U64() }, uint64(0x0807060504030201), uint64(0)},
	{"Bytes", 3, func(r *Reader) any { return string(r.Bytes(3)) }, "\x01\x02\x03", ""},
}

func TestReaderExactLength(t *testing.T) {
	for _, c := range readerCases {
		r := NewReader(input[:c.n], errTest)
		if got := c.read(&r); got != c.want {
			t.Errorf("%s: read %#v, want %#v", c.name, got, c.want)
		}
		if r.Len() != 0 {
			t.Errorf("%s: %d bytes left, want 0", c.name, r.Len())
		}
		if err := r.Done(); err != nil {
			t.Errorf("%s: Done = %v", c.name, err)
		}
	}
}

func TestReaderOneByteShort(t *testing.T) {
	for _, c := range readerCases {
		r := NewReader(input[:c.n-1], errTest)
		if got := c.read(&r); got != c.zero {
			t.Errorf("%s: short read returned %#v, want %#v", c.name, got, c.zero)
		}
		if err := r.Err(); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: short read error %v, want a truncation wrapping the class", c.name, err)
		}
		if r.Len() != 0 {
			t.Errorf("%s: failed reader has %d bytes left, want 0", c.name, r.Len())
		}
	}
}

// After the first failure every read returns its zero value and the
// first error stays the reader's error, whatever follows.
func TestReaderStickyError(t *testing.T) {
	for _, c := range readerCases {
		r := NewReader(input, errTest)
		r.Fail("first %d", 1)
		first := r.Err()
		if got := c.read(&r); got != c.zero {
			t.Errorf("%s: read after failure returned %#v, want %#v", c.name, got, c.zero)
		}
		r.Fail("second")
		if err := r.Done(); err != first {
			t.Errorf("%s: error after failure is %v, want the first %v", c.name, err, first)
		}
		if msg := first.Error(); msg != "test: malformed: first 1" {
			t.Errorf("%s: error message %q", c.name, msg)
		}
	}
}

func TestReaderDoneCatchesTrailingBytes(t *testing.T) {
	for _, c := range readerCases {
		r := NewReader(input[:c.n+1], errTest)
		if got := c.read(&r); got != c.want {
			t.Errorf("%s: read %#v, want %#v", c.name, got, c.want)
		}
		if r.Err() != nil {
			t.Errorf("%s: error before Done: %v", c.name, r.Err())
		}
		if err := r.Done(); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "1 trailing bytes") {
			t.Errorf("%s: Done = %v, want 1 trailing byte wrapping the class", c.name, err)
		}
	}
}

func TestReaderMagicMismatch(t *testing.T) {
	r := NewReader([]byte("CKPX"), errTest)
	r.Magic("CKPF")
	if err := r.Err(); !errors.Is(err, errTest) || !strings.Contains(err.Error(), `bad magic "CKPX"`) {
		t.Fatalf("Magic mismatch: %v", err)
	}
}

// Bytes returns a view into the input, capped so that appending to it
// cannot overwrite the bytes that follow; a negative length fails.
func TestReaderBytesIsCappedView(t *testing.T) {
	buf := bytes.Clone(input)
	r := NewReader(buf, errTest)
	v := r.Bytes(3)
	if &v[0] != &buf[0] || cap(v) != 3 {
		t.Fatalf("Bytes(3) is not a capped view: cap %d", cap(v))
	}
	_ = append(v, 0xFF)
	if buf[3] != 4 {
		t.Fatal("append to a view overwrote the input")
	}
	if r.Bytes(-1) != nil || !errors.Is(r.Err(), errTest) {
		t.Fatalf("Bytes(-1): %v", r.Err())
	}
}

func TestCRC32C(t *testing.T) {
	// The standard CRC-32C check value.
	if got := CRC32C([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("CRC32C check value %#08x, want 0xe3069283", got)
	}
}

func TestReaderAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(input, errTest)
		r.Magic("\x01")
		_, _, _, _ = r.U8(), r.U16(), r.U32(), r.Bytes(1)
		if r.Done() != nil {
			t.Fatal(r.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("a successful read allocates %v/op, want 0", allocs)
	}
}
