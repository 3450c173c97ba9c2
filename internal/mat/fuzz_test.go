package mat

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzLU checks the LU factorization over random n×n matrices, n ≤ 12. The
// shape byte's bits reshape the draw: bit 0 duplicates a row (exactly or
// scaled), bit 1 scales the columns by factors from 1e-8 to 1e8, bit 2
// zeroes most entries. Every matrix must either be rejected with
// ErrSingular or solve with a residual
//
//	‖b − A·x‖∞ ≤ 1e-9·(‖A‖∞·‖x‖∞ + ‖b‖∞),
//
// and FactorInto into storage left by an earlier factorization of another
// size (the reuse the QP's KKT table relies on) must equal Factor bit for
// bit, in its factors and its solve.
//
// The seed corpus lives in testdata/fuzz/FuzzLU; explore further with
// go test -run '^$' -fuzz FuzzLU -fuzztime 20s ./internal/mat.
func FuzzLU(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%12
		a := randomLUMatrix(r, n, shape)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		reuse, _ := FactorInto(nil, randomLUMatrix(r, 1+r.Intn(12), shape))
		want, werr := Factor(a)
		got, gerr := FactorInto(reuse, a)
		if werr != nil {
			if !errors.Is(werr, ErrSingular) {
				t.Fatalf("n=%d: Factor failed with %v, want ErrSingular or success", n, werr)
			}
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("n=%d: FactorInto err %v, Factor err %v", n, gerr, werr)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("n=%d: FactorInto err %v, Factor succeeded", n, gerr)
		}
		if got.sign != want.sign || !sameBits(got.lu.data, want.lu.data) || !slices.Equal(got.piv, want.piv) {
			t.Fatalf("n=%d: FactorInto into reused storage differs from Factor", n)
		}
		x, err := want.SolveInto(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		gx, err := got.SolveInto(make([]float64, 1+r.Intn(13)), b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(gx, x) {
			t.Fatalf("n=%d: solve through the reused factorization differs", n)
		}
		ax, err := a.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		res, normA, normX, normB := 0.0, 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			res = max(res, math.Abs(b[i]-ax[i]))
			normX = max(normX, math.Abs(x[i]))
			normB = max(normB, math.Abs(b[i]))
			row := 0.0
			for _, v := range a.RawRow(i) {
				row += math.Abs(v)
			}
			normA = max(normA, row)
		}
		if bound := 1e-9 * (normA*normX + normB); !(res <= bound) {
			t.Fatalf("n=%d: residual %g exceeds %g (‖A‖ %g, ‖x‖ %g, ‖b‖ %g)", n, res, bound, normA, normX, normB)
		}
	})
}

// randomLUMatrix draws an n×n matrix shaped by FuzzLU's shape bits.
func randomLUMatrix(r *rand.Rand, n int, shape uint8) *Matrix {
	a := New(n, n)
	density := 1.0
	if shape&4 != 0 {
		density = 0.3
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < density {
				a.Set(i, j, r.NormFloat64())
			}
		}
	}
	if shape&1 != 0 && n > 1 {
		src, dst := r.Intn(n), r.Intn(n)
		scale := 1.0
		if r.Intn(2) == 0 {
			scale = r.NormFloat64()
		}
		for j := 0; j < n; j++ {
			a.Set(dst, j, scale*a.At(src, j))
		}
	}
	if shape&2 != 0 {
		for j := 0; j < n; j++ {
			s := math.Pow(10, float64(r.Intn(17)-8))
			for i := 0; i < n; i++ {
				a.Set(i, j, s*a.At(i, j))
			}
		}
	}
	return a
}
