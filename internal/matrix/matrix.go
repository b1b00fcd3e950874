// Package matrix provides the flat row-major float64 matrix used for
// every similarity table in the pipeline (element-level lsim, node-level
// lsim, ssim, wsim).
//
// The earlier representation was [][]float64 with one allocation per row;
// on the quadratic phases of Cupid (TreeMatch's leaf sweeps, mapping
// generation, the eval consumers) that cost one pointer indirection per
// row access and scattered rows across the heap. Matrix keeps a single
// backing []float64, so rows are cache-contiguous, whole-matrix operations
// (Zero, Equal, MaxAbsDiff) are simple slice loops, and building an n×m
// table is exactly two allocations. Matrix is a small value (four words);
// copies share the backing slice, as with ordinary slices.
//
// Concurrent use: distinct cells may be written concurrently (the parallel
// sweeps write disjoint index ranges); concurrent reads are always safe.
package matrix

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// Zeroed returns s with length n and every element zero, reusing its
// array when large enough. The match kernels size their pooled scratch
// arrays with it.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// New returns a zeroed rows×cols matrix backed by one allocation.
func New(rows, cols int) Matrix {
	return Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a Matrix by copying a [][]float64; it panics on ragged
// input. Convenience for tests and callers migrating from the old
// representation.
func FromRows(rows [][]float64) Matrix {
	if len(rows) == 0 {
		return Matrix{}
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("matrix: FromRows given ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Rows returns the number of rows.
func (m Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m Matrix) Cols() int { return m.cols }

// Empty reports whether the matrix has no cells (the zero value is empty).
func (m Matrix) Empty() bool { return m.rows == 0 || m.cols == 0 }

// At returns the element at row i, column j.
func (m Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set stores v at row i, column j.
func (m Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the backing store. The slice is
// full-capacity-clipped, so appends by the caller cannot bleed into the
// next row.
func (m Matrix) Row(i int) []float64 {
	lo, hi := i*m.cols, (i+1)*m.cols
	return m.data[lo:hi:hi]
}

// Zero resets every cell to 0 in place.
func (m Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	out := Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// Equal reports whether the two matrices have identical shape and
// bit-identical cells (no tolerance: the determinism tests require the
// parallel pipeline to reproduce the sequential result exactly).
func (m Matrix) Equal(o Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute cell difference between two
// same-shaped matrices; it panics on shape mismatch.
func (m Matrix) MaxAbsDiff(o Matrix) float64 {
	if m.rows != o.rows || m.cols != o.cols {
		panic("matrix: MaxAbsDiff shape mismatch")
	}
	worst := 0.0
	for i, v := range m.data {
		d := v - o.data[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
