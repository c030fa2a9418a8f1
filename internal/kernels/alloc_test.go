package kernels

import "testing"

// TestZeroAllocArrayIO pins row I/O: once an Array's scratch buffer
// has grown to the access size, Read and Write allocate nothing.
func TestZeroAllocArrayIO(t *testing.T) {
	a, err := NewArray(space(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 512)
	for i := range row {
		row[i] = float64(i)
	}
	if err := a.Write(row, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := a.Write(row, 1024); err != nil {
			t.Fatal(err)
		}
		if err := a.Read(row[:100], 1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Array Read+Write allocates %v/op, want 0", allocs)
	}
}

// TestZeroAllocStencilStep pins a Jacobi sweep: the row window lives in
// the Stencil2D and every row goes through the arrays' scratch buffers.
func TestZeroAllocStencilStep(t *testing.T) {
	s, err := NewStencil2D(space(), 64, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Stencil2D.Step allocates %v/op, want 0", allocs)
	}
}
