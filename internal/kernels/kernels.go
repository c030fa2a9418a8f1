package kernels

import (
	"fmt"

	"repro/internal/mem"
)

// Stencil2D is a double-buffered 5-point Jacobi iteration on an nx x ny
// grid — the canonical bulk-synchronous kernel. Because it ping-pongs
// between two arrays, consecutive iterations dirty different page sets:
// the real-code counterpart of the workload models' AltShift behaviour
// (and of NAS FT's out-of-place buffers).
type Stencil2D struct {
	nx, ny int
	a, b   *Array
	work   *Array // staging row: fully rewritten before any read, every sweep
	iter   int

	// Step's row window, allocated once so a sweep allocates nothing.
	up, mid, down, out []float64
}

func newStencil2D(nx, ny int, a, b, work *Array, iter int) *Stencil2D {
	rows := make([]float64, 4*nx)
	return &Stencil2D{
		nx: nx, ny: ny, a: a, b: b, work: work, iter: iter,
		up:   rows[0*nx : 1*nx : 1*nx],
		mid:  rows[1*nx : 2*nx : 2*nx],
		down: rows[2*nx : 3*nx : 3*nx],
		out:  rows[3*nx : 4*nx : 4*nx],
	}
}

// NewStencil2D allocates the two grid buffers in space, with boundary
// values boundary and interior zero.
func NewStencil2D(space *mem.AddressSpace, nx, ny int, boundary float64) (*Stencil2D, error) {
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("kernels: stencil grid %dx%d too small", nx, ny)
	}
	a, err := NewArray(space, nx*ny)
	if err != nil {
		return nil, err
	}
	b, err := NewArray(space, nx*ny)
	if err != nil {
		return nil, err
	}
	work, err := NewArray(space, nx)
	if err != nil {
		return nil, err
	}
	s := newStencil2D(nx, ny, a, b, work, 0)
	// Boundary rows/columns hold the boundary value in both buffers.
	row := make([]float64, nx)
	for i := range row {
		row[i] = boundary
	}
	for _, arr := range []*Array{a, b} {
		if err := arr.Write(row, 0); err != nil {
			return nil, err
		}
		if err := arr.Write(row, (ny-1)*nx); err != nil {
			return nil, err
		}
		edge := []float64{boundary}
		for y := 1; y < ny-1; y++ {
			if err := arr.Write(edge, y*nx); err != nil {
				return nil, err
			}
			if err := arr.Write(edge, y*nx+nx-1); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// AttachStencil2D rebuilds a Stencil2D handle over a restored address
// space. The arenas must have been created by NewStencil2D with the
// same dimensions; they are rebound by allocation-order layout matching
// (NewStencil2D allocates a, b, then the staging row). iter sets the
// completed-iteration count, which selects the current buffer — pass
// the iteration the checkpoint was taken at.
func AttachStencil2D(space *mem.AddressSpace, nx, ny, iter int) (*Stencil2D, error) {
	if nx < 3 || ny < 3 || iter < 0 {
		return nil, fmt.Errorf("kernels: bad attach parameters %dx%d iter %d", nx, ny, iter)
	}
	bufs, err := arenaLayout(space, nx*ny, nx*ny, nx)
	if err != nil {
		return nil, err
	}
	return newStencil2D(nx, ny, bufs[0], bufs[1], bufs[2], iter), nil
}

// SetRow writes initial conditions into row y of *both* buffers, so the
// values behave as if they had always been there (useful for seeding
// already-converged subregions).
func (s *Stencil2D) SetRow(y int, vals []float64) error {
	if y < 0 || y >= s.ny || len(vals) != s.nx {
		return fmt.Errorf("kernels: SetRow(%d) with %d values on %dx%d grid", y, len(vals), s.nx, s.ny)
	}
	if err := s.a.Write(vals, y*s.nx); err != nil {
		return err
	}
	return s.b.Write(vals, y*s.nx)
}

// Cur returns the buffer holding the current solution.
func (s *Stencil2D) Cur() *Array {
	if s.iter%2 == 0 {
		return s.a
	}
	return s.b
}

func (s *Stencil2D) next() *Array {
	if s.iter%2 == 0 {
		return s.b
	}
	return s.a
}

// Iter returns the number of completed iterations.
func (s *Stencil2D) Iter() int { return s.iter }

// Step performs one Jacobi sweep: next[y][x] = mean of cur's 4 neighbours.
func (s *Stencil2D) Step() error {
	cur, nxt := s.Cur(), s.next()
	up, mid, down, out := s.up, s.mid, s.down, s.out
	if err := cur.Read(mid, 0); err != nil {
		return err
	}
	if err := cur.Read(down, s.nx); err != nil {
		return err
	}
	for y := 1; y < s.ny-1; y++ {
		up, mid, down = mid, down, up
		if err := cur.Read(down, (y+1)*s.nx); err != nil {
			return err
		}
		out[0] = mid[0]
		out[s.nx-1] = mid[s.nx-1]
		for x := 1; x < s.nx-1; x++ {
			out[x] = 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
		}
		// Publish through the staging arena before committing to the
		// grid, the way production solvers assemble a result row in
		// private workspace. The arena is rewritten at the same offset
		// from protected inputs on every sweep — never read across an
		// iteration boundary — which is what lets the ckptset analysis
		// classify it recomputable and drop it from checkpoint lines.
		if err := s.work.Write(out, 0); err != nil {
			return err
		}
		if err := s.work.Read(out, 0); err != nil {
			return err
		}
		if err := nxt.Write(out, y*s.nx); err != nil {
			return err
		}
	}
	s.iter++
	return nil
}

// Run performs n sweeps.
func (s *Stencil2D) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Residual returns the max absolute difference between the two buffers'
// interiors — the Jacobi convergence measure.
func (s *Stencil2D) Residual() (float64, error) {
	ra := make([]float64, s.nx)
	rb := make([]float64, s.nx)
	var res float64
	for y := 1; y < s.ny-1; y++ {
		if err := s.a.Read(ra, y*s.nx); err != nil {
			return 0, err
		}
		if err := s.b.Read(rb, y*s.nx); err != nil {
			return 0, err
		}
		for x := 1; x < s.nx-1; x++ {
			if d := ra[x] - rb[x]; d > res {
				res = d
			} else if -d > res {
				res = -d
			}
		}
	}
	return res, nil
}

// SSOR is an in-place symmetric successive over-relaxation smoother on an
// nx x ny grid: one forward (lower-triangular) and one backward
// (upper-triangular) Gauss-Seidel sweep per iteration, like NAS LU's
// solver. Being in-place, it rewrites the same pages every iteration —
// the fixed-working-set pattern of LU/SP/BT.
type SSOR struct {
	nx, ny int
	u      *Array
	work   *Array // staging row: fully rewritten before any read, every sweep
	omega  float64
	iter   int
}

// NewSSOR allocates the grid with the given boundary value and
// relaxation factor omega in (0, 2).
func NewSSOR(space *mem.AddressSpace, nx, ny int, boundary, omega float64) (*SSOR, error) {
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("kernels: ssor grid %dx%d too small", nx, ny)
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("kernels: ssor omega %v out of (0,2)", omega)
	}
	u, err := NewArray(space, nx*ny)
	if err != nil {
		return nil, err
	}
	work, err := NewArray(space, nx)
	if err != nil {
		return nil, err
	}
	s := &SSOR{nx: nx, ny: ny, u: u, work: work, omega: omega}
	row := make([]float64, nx)
	for i := range row {
		row[i] = boundary
	}
	if err := u.Write(row, 0); err != nil {
		return nil, err
	}
	if err := u.Write(row, (ny-1)*nx); err != nil {
		return nil, err
	}
	edge := []float64{boundary}
	for y := 1; y < ny-1; y++ {
		if err := u.Write(edge, y*nx); err != nil {
			return nil, err
		}
		if err := u.Write(edge, y*nx+nx-1); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Grid returns the solution array.
func (s *SSOR) Grid() *Array { return s.u }

// Iter returns completed iterations.
func (s *SSOR) Iter() int { return s.iter }

func (s *SSOR) sweep(backward bool) error {
	up := make([]float64, s.nx)
	mid := make([]float64, s.nx)
	down := make([]float64, s.nx)
	ys := make([]int, 0, s.ny-2)
	if backward {
		for y := s.ny - 2; y >= 1; y-- {
			ys = append(ys, y)
		}
	} else {
		for y := 1; y < s.ny-1; y++ {
			ys = append(ys, y)
		}
	}
	for _, y := range ys {
		if err := s.u.Read(up, (y-1)*s.nx); err != nil {
			return err
		}
		if err := s.u.Read(mid, y*s.nx); err != nil {
			return err
		}
		if err := s.u.Read(down, (y+1)*s.nx); err != nil {
			return err
		}
		if backward {
			for x := s.nx - 2; x >= 1; x-- {
				gs := 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
				mid[x] += s.omega * (gs - mid[x])
			}
		} else {
			for x := 1; x < s.nx-1; x++ {
				gs := 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
				mid[x] += s.omega * (gs - mid[x])
			}
		}
		// Stage the relaxed row through the scratch arena (rewritten at
		// offset 0 every row, dead across iteration boundaries).
		if err := s.work.Write(mid, 0); err != nil {
			return err
		}
		if err := s.work.Read(mid, 0); err != nil {
			return err
		}
		if err := s.u.Write(mid, y*s.nx); err != nil {
			return err
		}
	}
	return nil
}

// Step performs one SSOR iteration (forward + backward sweep).
func (s *SSOR) Step() error {
	if err := s.sweep(false); err != nil {
		return err
	}
	if err := s.sweep(true); err != nil {
		return err
	}
	s.iter++
	return nil
}

// Wavefront is a 2-D analogue of Sweep3D's transport sweep: each cell
// combines its west and north neighbours, and each iteration performs
// four corner-origin sweeps (the 2-D "octants"), alternating write
// direction exactly like the transport code.
type Wavefront struct {
	nx, ny int
	v      *Array
	work   *Array // staging row: fully rewritten before any read, every sweep
	iter   int
}

// NewWavefront allocates the grid initialised to seed along the edges.
func NewWavefront(space *mem.AddressSpace, nx, ny int, seed float64) (*Wavefront, error) {
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("kernels: wavefront grid %dx%d too small", nx, ny)
	}
	v, err := NewArray(space, nx*ny)
	if err != nil {
		return nil, err
	}
	work, err := NewArray(space, nx)
	if err != nil {
		return nil, err
	}
	w := &Wavefront{nx: nx, ny: ny, v: v, work: work}
	row := make([]float64, nx)
	for i := range row {
		row[i] = seed
	}
	if err := v.Write(row, 0); err != nil {
		return nil, err
	}
	edge := []float64{seed}
	for y := 1; y < ny; y++ {
		if err := v.Write(edge, y*nx); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Grid returns the solution array.
func (w *Wavefront) Grid() *Array { return w.v }

// Iter returns completed iterations.
func (w *Wavefront) Iter() int { return w.iter }

// sweepFrom runs one directional sweep with origin corner (ox, oy) in
// {0,1}^2: cells are visited moving away from the origin, each updated
// from its two upwind neighbours.
func (w *Wavefront) sweepFrom(ox, oy int) error {
	prev := make([]float64, w.nx)
	cur := make([]float64, w.nx)
	for i := 0; i < w.ny; i++ {
		y := i
		if oy == 1 {
			y = w.ny - 1 - i
		}
		if err := w.v.Read(cur, y*w.nx); err != nil {
			return err
		}
		if i > 0 {
			for j := 1; j < w.nx; j++ {
				x := j
				if ox == 1 {
					x = w.nx - 1 - j
				}
				upwindX := x - 1
				if ox == 1 {
					upwindX = x + 1
				}
				cur[x] = 0.5*cur[upwindX] + 0.5*prev[x] + 0.01
			}
			// Stage the swept row through the scratch arena (rewritten
			// at offset 0 every row, dead across iteration boundaries).
			if err := w.work.Write(cur, 0); err != nil {
				return err
			}
			if err := w.work.Read(cur, 0); err != nil {
				return err
			}
			if err := w.v.Write(cur, y*w.nx); err != nil {
				return err
			}
		}
		prev, cur = cur, prev
	}
	return nil
}

// Step performs one iteration: four corner-origin sweeps.
func (w *Wavefront) Step() error {
	for _, c := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		if err := w.sweepFrom(c[0], c[1]); err != nil {
			return err
		}
	}
	w.iter++
	return nil
}

// ADI is an alternating-direction-implicit step like NAS SP/BT's solvers:
// each iteration performs tridiagonal Thomas solves along every row, then
// along every column, over a right-hand side derived from the current
// solution.
type ADI struct {
	nx, ny int
	u      *Array
	work   *Array // staging: row slot at 0, column slot at nx; rewritten every solve
	iter   int
	lambda float64 // implicit coupling strength
}

// NewADI allocates the grid with the given initial interior value.
func NewADI(space *mem.AddressSpace, nx, ny int, initial, lambda float64) (*ADI, error) {
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("kernels: adi grid %dx%d too small", nx, ny)
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("kernels: adi lambda %v must be positive", lambda)
	}
	u, err := NewArray(space, nx*ny)
	if err != nil {
		return nil, err
	}
	work, err := NewArray(space, nx+ny)
	if err != nil {
		return nil, err
	}
	a := &ADI{nx: nx, ny: ny, u: u, work: work, lambda: lambda}
	row := make([]float64, nx)
	for i := range row {
		row[i] = initial
	}
	for y := 0; y < ny; y++ {
		if err := u.Write(row, y*nx); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Grid returns the solution array.
func (a *ADI) Grid() *Array { return a.u }

// Iter returns completed iterations.
func (a *ADI) Iter() int { return a.iter }

// thomas solves the constant-coefficient tridiagonal system
// (1+2L) x_i - L x_{i-1} - L x_{i+1} = d_i in place on d.
func thomas(d []float64, lambda float64) {
	n := len(d)
	c := make([]float64, n)
	b := 1 + 2*lambda
	c[0] = -lambda / b
	d[0] /= b
	for i := 1; i < n; i++ {
		m := b + lambda*c[i-1]
		if i < n-1 {
			c[i] = -lambda / m
		}
		d[i] = (d[i] + lambda*d[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= c[i] * d[i+1]
	}
}

// Step performs one ADI iteration: row solves then column solves.
func (a *ADI) Step() error {
	// Row direction.
	row := make([]float64, a.nx)
	for y := 0; y < a.ny; y++ {
		if err := a.u.Read(row, y*a.nx); err != nil {
			return err
		}
		thomas(row, a.lambda)
		// Stage the solved row through the scratch arena's row slot
		// (rewritten at offset 0 every solve, dead across iterations).
		if err := a.work.Write(row, 0); err != nil {
			return err
		}
		if err := a.work.Read(row, 0); err != nil {
			return err
		}
		if err := a.u.Write(row, y*a.nx); err != nil {
			return err
		}
	}
	// Column direction: gather, solve, scatter.
	col := make([]float64, a.ny)
	one := make([]float64, 1)
	for x := 0; x < a.nx; x++ {
		for y := 0; y < a.ny; y++ {
			if err := a.u.Read(one, y*a.nx+x); err != nil {
				return err
			}
			col[y] = one[0]
		}
		thomas(col, a.lambda)
		// Column slot of the scratch arena, at offset nx.
		if err := a.work.Write(col, a.nx); err != nil {
			return err
		}
		if err := a.work.Read(col, a.nx); err != nil {
			return err
		}
		for y := 0; y < a.ny; y++ {
			one[0] = col[y]
			if err := a.u.Write(one, y*a.nx+x); err != nil {
				return err
			}
		}
	}
	a.iter++
	return nil
}
