package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of two equally sized vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// DotRows sets dst[k] = Dot(rows[k], x) for every row; each row must be
// as long as x. It runs four rows at a time: their sums do not depend on
// one another, so their additions overlap instead of each waiting on the
// last, and every sum is still accumulated in Dot's order, bit for bit.
func DotRows(dst []float64, rows [][]float64, x []float64) {
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		n := len(x)
		r0, r1, r2, r3 := rows[k][:n], rows[k+1][:n], rows[k+2][:n], rows[k+3][:n]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = s0, s1, s2, s3
	}
	for ; k < len(rows); k++ {
		dst[k] = Dot(rows[k], x)
	}
}

// AxPlusY returns a·x + y element-wise as a new vector.
func AxPlusY(a float64, x, y []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = a*x[i] + y[i]
	}
	return out
}

// Sub returns a - b element-wise as a new vector.
func Sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// NormInf returns the maximum absolute entry of v (0 for an empty vector).
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// CloneVec returns a copy of v. A nil input yields a nil output.
func CloneVec(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Fill sets every entry of v to x.
func Fill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

// CMatrix is a dense, row-major matrix of complex128 values, used for bus
// admittance matrices in AC power flow.
type CMatrix struct {
	rows, cols int
	data       []complex128
}

// NewC returns a zero-valued rows×cols complex matrix.
func NewC(rows, cols int) *CMatrix {
	return &CMatrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// Rows returns the number of rows.
func (m *CMatrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CMatrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.data[i*m.cols+j] = v }

// Add accumulates v into the element at (i, j).
func (m *CMatrix) Add(i, j int, v complex128) { m.data[i*m.cols+j] += v }

// MulVec returns m·x for a complex vector x.
func (m *CMatrix) MulVec(x []complex128) ([]complex128, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("CMatrix.MulVec: vector length %d, want %d: %w", len(x), m.cols, ErrShape)
	}
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}
