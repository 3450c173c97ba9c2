// Package mat provides the dense linear-algebra kernels used by the power
// flow, dispatch, and optimization packages. It is deliberately small: dense
// row-major matrices, LU and Cholesky factorizations, and a complex matrix
// type for bus admittance work. The networks in this repository (up to the
// IEEE 118-bus case) are small enough that dense factorizations are both
// simpler and fast enough.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-valued rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equally sized rows.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("row %d has %d entries, want %d: %w", i, len(r), cols, ErrShape)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Wrap views an existing row-major flat slice as a rows×cols matrix
// without copying; the matrix and the slice share storage. Batch kernels
// use this to run matrix ops over externally packed buffers.
func Wrap(rows, cols int, data []float64) (*Matrix, error) {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		return nil, fmt.Errorf("Wrap: %d values for %dx%d: %w", len(data), rows, cols, ErrShape)
	}
	return &Matrix{rows: rows, cols: cols, data: data}, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add accumulates v into the element at (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RawRow returns row i backed by the matrix storage. Mutations to the
// returned slice mutate the matrix.
func (m *Matrix) RawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("MulVec: vector length %d, want %d: %w", len(x), m.cols, ErrShape)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("Mul: %dx%d by %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		arow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out, nil
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LU is an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// Factor computes the LU factorization of a square matrix.
func Factor(a *Matrix) (*LU, error) {
	return FactorInto(nil, a)
}

// FactorInto computes the LU factorization of a square matrix into reuse's
// storage when it has room, allocating only when reuse is nil or too small,
// and returns the factorization (reuse itself when non-nil). The arithmetic
// is exactly Factor's. On error the contents of reuse are unspecified, but
// its storage stays reusable.
func FactorInto(reuse *LU, a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("Factor: %dx%d not square: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	f := reuse
	if f == nil {
		f = &LU{}
	}
	if f.lu == nil {
		f.lu = &Matrix{}
	}
	lu := f.lu
	if cap(lu.data) < n*n {
		lu.data = make([]float64, n*n)
	}
	lu.rows, lu.cols, lu.data = n, n, lu.data[:n*n]
	copy(lu.data, a.data)
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	piv := f.piv[:n]
	f.piv = piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest magnitude in column k at or below row k.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxAbs {
				maxAbs, p = v, i
			}
		}
		if maxAbs < 1e-13 {
			return nil, fmt.Errorf("pivot %d is %g: %w", k, maxAbs, ErrSingular)
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			ri := lu.data[i*n : (i+1)*n]
			rk := lu.data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	f.sign = sign
	return f, nil
}

// Solve solves A·x = b using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	return f.SolveInto(nil, b)
}

// SolveInto solves A·x = b into dst when it has capacity for the solution,
// allocating otherwise, and returns the solution (resliced dst when it
// fits). dst must not overlap b. The arithmetic is exactly Solve's.
func (f *LU) SolveInto(dst, b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("LU.Solve: rhs length %d, want %d: %w", len(b), n, ErrShape)
	}
	x := dst
	if cap(x) < n {
		x = make([]float64, n)
	}
	x = x[:n]
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := f.lu.data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// SolveSparseInto solves A·x = b into dst like SolveInto, with both
// triangular sweeps run column by column: once x_j is final, column j of L
// (forward) or U (backward) is subtracted from the equations still open,
// and skipped outright when x_j is zero. For the sparse right-hand sides of
// a simplex FTRAN most columns are skipped. The sums accumulate in another
// order than SolveInto's, so the last bits may differ. dst must not
// overlap b.
func (f *LU) SolveSparseInto(dst, b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("LU.SolveSparse: rhs length %d, want %d: %w", len(b), n, ErrShape)
	}
	x := dst
	if cap(x) < n {
		x = make([]float64, n)
	}
	x = x[:n]
	for i, p := range f.piv {
		x[i] = b[p]
	}
	d := f.lu.data
	for j := 0; j < n; j++ {
		if s := x[j]; s != 0 {
			for i := j + 1; i < n; i++ {
				x[i] -= d[i*n+j] * s
			}
		}
	}
	for j := n - 1; j >= 0; j-- {
		s := x[j] / d[j*n+j]
		x[j] = s
		if s != 0 {
			for i := 0; i < j; i++ {
				x[i] -= d[i*n+j] * s
			}
		}
	}
	return x, nil
}

// SolveTInto solves Aᵀ·y = b into dst when it has capacity for the
// solution, allocating otherwise, and returns the solution (resliced dst
// when it fits). dst must not overlap b. Both triangular sweeps run row by
// row over the row-major factors — Uᵀ forward, then Lᵀ backward, each
// subtracting a multiple of one stored row, skipped when that multiple is
// zero — so they read memory as contiguously as SolveInto does. The sweeps run in b, which is left
// holding intermediate values; pass a copy to keep it.
func (f *LU) SolveTInto(dst, b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("LU.SolveT: rhs length %d, want %d: %w", len(b), n, ErrShape)
	}
	y := dst
	if cap(y) < n {
		y = make([]float64, n)
	}
	y = y[:n]
	// Forward substitution with Uᵀ: once s_i = b_i/u_ii is known, row i of
	// U carries its contribution to every later equation.
	for i := 0; i < n; i++ {
		row := f.lu.data[i*n+i : (i+1)*n]
		bs := b[i:][:len(row)]
		s := bs[0] / row[0]
		bs[0] = s
		if s == 0 {
			continue
		}
		for j := 1; j < len(row); j++ {
			bs[j] -= row[j] * s
		}
	}
	// Back substitution with the unit-diagonal Lᵀ, row i of L feeding the
	// earlier equations.
	for i := n - 1; i > 0; i-- {
		s := b[i]
		if s == 0 {
			continue
		}
		row := f.lu.data[i*n : i*n+i]
		bs := b[:len(row)]
		for j, l := range row {
			bs[j] -= l * s
		}
	}
	// Undo the row permutation: Aᵀ = Uᵀ·Lᵀ·P.
	for i, p := range f.piv {
		y[p] = b[i]
	}
	return y, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves A·x = b for a square A.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A⁻¹.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Cholesky is the lower-triangular factor of a symmetric positive-definite
// matrix: A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes the Cholesky factorization of a symmetric
// positive-definite matrix.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("FactorCholesky: %dx%d not square: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 1e-13 {
			return nil, fmt.Errorf("leading minor %d not positive (%g): %w", j, d, ErrSingular)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve solves A·x = b using the Cholesky factorization.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n := c.l.rows
	if len(b) != n {
		return nil, fmt.Errorf("Cholesky.Solve: rhs length %d, want %d: %w", len(b), n, ErrShape)
	}
	x := make([]float64, n)
	copy(x, b)
	// L·y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	// Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x, nil
}
