// Package kernels implements real numerical kernels — Jacobi stencil,
// SSOR, wavefront sweep, ADI tridiagonal solves, and an FFT — whose data
// lives in a simulated address space and whose every store goes through
// the simulated MMU. They are scaled-down, genuine counterparts of the
// paper's applications (Sweep3D's wavefront, LU's SSOR, BT/SP's ADI, FT's
// FFT): the synthetic models in internal/workload reproduce the paper's
// published write patterns at full scale, while these kernels validate
// that the tracker and checkpointer observe *real* programs correctly —
// double-buffered page alternation, in-place sweeps, transpose bursts —
// and that checkpoint/restore preserves real computations.
package kernels

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mem"
)

// Array is a dense float64 vector stored in a region of a simulated
// address space. All element accesses go through the simulated MMU, so a
// tracker attached to the space observes the kernel's true write pattern.
//
// An Array is not safe for concurrent use: Read and Write stage element
// bytes through one scratch buffer the array owns, so steady-state row
// I/O allocates nothing.
type Array struct {
	space   *mem.AddressSpace
	reg     *mem.Region
	base    uint64
	n       int
	scratch []byte
}

// NewArray maps a fresh arena holding n float64s.
func NewArray(space *mem.AddressSpace, n int) (*Array, error) {
	if n <= 0 {
		return nil, fmt.Errorf("kernels: array length %d", n)
	}
	reg, err := space.Mmap(uint64(n) * 8)
	if err != nil {
		return nil, err
	}
	return &Array{space: space, reg: reg, base: reg.Start(), n: n}, nil
}

// AttachArray rebinds an Array to an existing region starting at addr —
// the restore path, where checkpointed arenas already exist in the
// address space at their original locations.
func AttachArray(space *mem.AddressSpace, addr uint64, n int) (*Array, error) {
	if n <= 0 {
		return nil, fmt.Errorf("kernels: array length %d", n)
	}
	reg := space.Find(addr)
	if reg == nil || reg.Start() != addr {
		return nil, fmt.Errorf("kernels: no region starts at %#x", addr)
	}
	if reg.Size() < uint64(n)*8 {
		return nil, fmt.Errorf("kernels: region at %#x holds %d bytes, need %d", addr, reg.Size(), n*8)
	}
	return &Array{space: space, reg: reg, base: addr, n: n}, nil
}

// Len returns the element count.
func (a *Array) Len() int { return a.n }

// Region returns the backing region.
func (a *Array) Region() *mem.Region { return a.reg }

// Free unmaps the backing region.
func (a *Array) Free() error { return a.space.Munmap(a.reg) }

func (a *Array) check(off, n int) error {
	if off < 0 || n < 0 || off+n > a.n {
		return fmt.Errorf("kernels: slice [%d,%d) out of array of %d", off, off+n, a.n)
	}
	return nil
}

// buf returns the scratch buffer resized to hold n elements, growing it
// only when a longer access than any before it arrives.
func (a *Array) buf(n int) []byte {
	if cap(a.scratch) < n*8 {
		a.scratch = make([]byte, n*8)
	}
	return a.scratch[:n*8]
}

// Read copies elements [off, off+len(dst)) into dst.
func (a *Array) Read(dst []float64, off int) error {
	if err := a.check(off, len(dst)); err != nil {
		return err
	}
	buf := a.buf(len(dst))
	if err := a.space.Read(a.base+uint64(off)*8, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

// Write stores src at element offset off, faulting through the MMU like
// any application store.
func (a *Array) Write(src []float64, off int) error {
	if err := a.check(off, len(src)); err != nil {
		return err
	}
	buf := a.buf(len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return a.space.Write(a.base+uint64(off)*8, buf)
}

// Fill sets every element to v.
func (a *Array) Fill(v float64) error {
	row := make([]float64, min(a.n, 4096))
	for i := range row {
		row[i] = v
	}
	for off := 0; off < a.n; off += len(row) {
		chunk := row[:min(len(row), a.n-off)]
		if err := a.Write(chunk, off); err != nil {
			return err
		}
	}
	return nil
}

// At returns element i (convenience for tests; row I/O is faster).
func (a *Array) At(i int) (float64, error) {
	var one [1]float64
	err := a.Read(one[:], i)
	return one[0], err
}

// Checksum returns the sum of all elements — a cheap integrity probe for
// checkpoint/restore equivalence tests.
func (a *Array) Checksum() (float64, error) {
	row := make([]float64, min(a.n, 4096))
	var sum float64
	for off := 0; off < a.n; off += len(row) {
		chunk := row[:min(len(row), a.n-off)]
		if err := a.Read(chunk, off); err != nil {
			return 0, err
		}
		for _, v := range chunk {
			sum += v
		}
	}
	return sum, nil
}
