package mat

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	if m.Rows() != 2 || m.Cols() != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected matrix: %v", m)
	}
}

func TestNewFromRowsRagged(t *testing.T) {
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestNewFromRowsEmpty(t *testing.T) {
	m, err := NewFromRows(nil)
	if err != nil || m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty: %v %v", m, err)
	}
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(4)
	x := []float64{1, -2, 3, 0.5}
	y, err := id.MulVec(x)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if !vecAlmostEq(x, y, 0) {
		t.Fatalf("identity changed vector: %v", y)
	}
}

func TestMulVecShapeError(t *testing.T) {
	m := New(2, 3)
	if _, err := m.MulVec([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMul(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := NewFromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Fatalf("got %v want %v", c, want)
			}
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestTranspose(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", at)
	}
}

func TestLUSolve(t *testing.T) {
	a, _ := NewFromRows([][]float64{
		{4, -2, 1},
		{-2, 4, -2},
		{1, -2, 4},
	})
	b := []float64{11, -16, 17}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ax, _ := a.MulVec(x)
	if !vecAlmostEq(ax, b, 1e-10) {
		t.Fatalf("residual too large: Ax=%v b=%v", ax, b)
	}
}

func TestLUSolveSingular(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestLUDet(t *testing.T) {
	a, _ := NewFromRows([][]float64{{2, 0}, {0, 3}})
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if !almostEq(f.Det(), 6, 1e-12) {
		t.Fatalf("det = %v, want 6", f.Det())
	}
}

func TestLUDetPermutationSign(t *testing.T) {
	// Swapping rows of the identity gives determinant -1.
	a, _ := NewFromRows([][]float64{{0, 1}, {1, 0}})
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if !almostEq(f.Det(), -1, 1e-12) {
		t.Fatalf("det = %v, want -1", f.Det())
	}
}

func TestInverse(t *testing.T) {
	a, _ := NewFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	prod, _ := a.Mul(inv)
	id := Identity(2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(prod.At(i, j), id.At(i, j), 1e-12) {
				t.Fatalf("A·A⁻¹ != I: %v", prod)
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	a, _ := NewFromRows([][]float64{
		{4, 2, 0},
		{2, 5, 1},
		{0, 1, 3},
	})
	b := []float64{2, -1, 4}
	ch, err := FactorCholesky(a)
	if err != nil {
		t.Fatalf("FactorCholesky: %v", err)
	}
	x, err := ch.Solve(b)
	if err != nil {
		t.Fatalf("Cholesky.Solve: %v", err)
	}
	ax, _ := a.MulVec(x)
	if !vecAlmostEq(ax, b, 1e-10) {
		t.Fatalf("residual too large: Ax=%v b=%v", ax, b)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := FactorCholesky(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestCholeskyNotSquare(t *testing.T) {
	if _, err := FactorCholesky(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

// Property: for random well-conditioned systems, Solve returns x with
// A·x ≈ b.
func TestLUSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance → well-conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, _ := a.MulVec(x)
		return vecAlmostEq(ax, b, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: FactorInto and SolveInto run Factor's and Solve's arithmetic
// bit for bit, whatever storage they reuse. One LU and one destination are
// threaded through matrices of random sizes — so the storage left by a
// larger and by a smaller earlier matrix both get reused — and through
// singular matrices, after which the storage must still serve the next
// factorization.
func TestFactorIntoMatchesFactor(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var reuse LU
	var dst []float64
	sizes := []int{9, 3, 12, 1, 12, 5, 7, 2}
	for trial := 0; trial < 200; trial++ {
		n := sizes[trial%len(sizes)] + r.Intn(3)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Float64() < 0.7 {
					a.Set(i, j, r.NormFloat64())
				}
			}
		}
		singular := n > 1 && trial%5 == 0
		if singular {
			// Duplicate a row: the elimination meets a zero pivot.
			copy(a.RawRow(n-1), a.RawRow(r.Intn(n-1)))
		}
		want, werr := Factor(a)
		got, gerr := FactorInto(&reuse, a)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("trial %d: Factor err %v, FactorInto err %v", trial, werr, gerr)
		}
		if werr != nil {
			if !errors.Is(gerr, ErrSingular) || gerr.Error() != werr.Error() {
				t.Fatalf("trial %d: FactorInto err %q, want %q", trial, gerr, werr)
			}
			continue
		}
		if singular {
			t.Fatalf("trial %d: duplicated row factored without error", trial)
		}
		if got != &reuse {
			t.Fatalf("trial %d: FactorInto did not return the reused LU", trial)
		}
		if got.sign != want.sign || !slices.Equal(got.piv, want.piv) || !sameBits(got.lu.data, want.lu.data) {
			t.Fatalf("trial %d: FactorInto factors differ from Factor", trial)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		wx, err := want.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		gx, err := got.SolveInto(dst, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(gx, wx) {
			t.Fatalf("trial %d: SolveInto %v, Solve %v", trial, gx, wx)
		}
		if cap(dst) >= n && &gx[0] != &dst[:1][0] {
			t.Fatalf("trial %d: SolveInto allocated despite room in dst", trial)
		}
		dst = gx
	}
	if _, err := FactorInto(&reuse, New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square FactorInto: want ErrShape, got %v", err)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Property: Cholesky solve of A = MᵀM + n·I reproduces the rhs.
func TestCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		m := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		mt := m.T()
		a, _ := mt.Mul(m)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		ch, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		x, err := ch.Solve(b)
		if err != nil {
			return false
		}
		ax, _ := a.MulVec(x)
		return vecAlmostEq(ax, b, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDotRowsMatchesDot checks DotRows against Dot bit for bit on row
// counts that do and do not fill its four-row blocks.
func TestDotRowsMatchesDot(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := make([]float64, 37)
	for j := range x {
		x[j] = r.NormFloat64()
	}
	for m := 0; m <= 9; m++ {
		rows := make([][]float64, m)
		for k := range rows {
			rows[k] = make([]float64, len(x))
			for j := range rows[k] {
				rows[k][j] = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
			}
		}
		dst := make([]float64, m)
		DotRows(dst, rows, x)
		for k, row := range rows {
			if want := Dot(row, x); math.Float64bits(dst[k]) != math.Float64bits(want) {
				t.Fatalf("%d rows: row %d = %.17g, Dot %.17g", m, k, dst[k], want)
			}
		}
	}
}

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if got := AxPlusY(2, a, b); !vecAlmostEq(got, []float64{6, 9, 12}, 0) {
		t.Fatalf("AxPlusY = %v", got)
	}
	if got := Sub(b, a); !vecAlmostEq(got, []float64{3, 3, 3}, 0) {
		t.Fatalf("Sub = %v", got)
	}
	if NormInf([]float64{-5, 2}) != 5 {
		t.Fatal("NormInf")
	}
	if NormInf(nil) != 0 {
		t.Fatal("NormInf nil")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2")
	}
	if Sum(a) != 6 {
		t.Fatal("Sum")
	}
	c := CloneVec(a)
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("CloneVec did not copy")
	}
	if CloneVec(nil) != nil {
		t.Fatal("CloneVec nil")
	}
	v := make([]float64, 3)
	Fill(v, 7)
	if !vecAlmostEq(v, []float64{7, 7, 7}, 0) {
		t.Fatal("Fill")
	}
}

func TestCMatrix(t *testing.T) {
	m := NewC(2, 2)
	m.Set(0, 0, 1+2i)
	m.Add(0, 0, 1)
	m.Set(0, 1, 3i)
	m.Set(1, 0, 1)
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatal("dims")
	}
	if m.At(0, 0) != 2+2i {
		t.Fatalf("At = %v", m.At(0, 0))
	}
	y, err := m.MulVec([]complex128{1, 1i})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if y[0] != (2+2i)+(3i*1i) || y[1] != 1 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := m.MulVec([]complex128{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMatrixString(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}})
	if s := m.String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestScaleAndRow(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	m.Scale(2)
	if m.At(1, 1) != 8 {
		t.Fatalf("Scale: %v", m)
	}
	r := m.Row(0)
	r[0] = 42
	if m.At(0, 0) != 2 {
		t.Fatal("Row must copy")
	}
	rr := m.RawRow(0)
	rr[0] = 42
	if m.At(0, 0) != 42 {
		t.Fatal("RawRow must alias")
	}
}

// Property: SolveSparseInto solves the same system as SolveInto, to
// rounding, on right-hand sides with a few nonzeros, and uses dst when it
// has room.
func TestSolveSparseIntoMatchesSolveInto(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var dst []float64
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(14)
		f, err := Factor(randomLUMatrix(r, n, uint8(trial%8)&^3))
		if err != nil {
			continue
		}
		b := make([]float64, n)
		for k := 1 + r.Intn(3); k > 0; k-- {
			b[r.Intn(n)] = r.NormFloat64()
		}
		want, err := f.SolveInto(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.SolveSparseInto(dst, b)
		if err != nil {
			t.Fatal(err)
		}
		if cap(dst) >= n && &got[0] != &dst[:1][0] {
			t.Fatalf("trial %d: SolveSparseInto allocated despite room in dst", trial)
		}
		dst = got
		for i := range want {
			if d := math.Abs(want[i] - got[i]); d > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %g, SolveInto gives %g", trial, i, got[i], want[i])
			}
		}
	}
	if _, err := (&LU{lu: New(2, 2), piv: []int{0, 1}}).SolveSparseInto(nil, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: want ErrShape, got %v", err)
	}
}

// Property: SolveTInto solves the transposed system: the residual of
// Aᵀ·y = b is at rounding level, it agrees with a solve through the
// factorization of Aᵀ itself, and dst is used when it has room.
func TestSolveTIntoSolvesTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var dst []float64
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(14)
		a := randomLUMatrix(r, n, uint8(trial%8)&^1)
		f, err := Factor(a)
		if err != nil {
			continue
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		work := slices.Clone(b)
		y, err := f.SolveTInto(dst, work)
		if err != nil {
			t.Fatal(err)
		}
		if cap(dst) >= n && &y[0] != &dst[:1][0] {
			t.Fatalf("trial %d: SolveTInto allocated despite room in dst", trial)
		}
		dst = y
		at := a.T()
		aty, err := at.MulVec(y)
		if err != nil {
			t.Fatal(err)
		}
		res, scale := 0.0, 0.0
		for i := 0; i < n; i++ {
			res = math.Max(res, math.Abs(b[i]-aty[i]))
			scale = math.Max(scale, math.Abs(b[i]))
			for j := 0; j < n; j++ {
				scale = math.Max(scale, math.Abs(at.At(i, j)*y[j]))
			}
		}
		if res > 1e-9*scale {
			t.Fatalf("trial %d (n=%d): residual %g at scale %g", trial, n, res, scale)
		}
		want, err := Solve(at, b)
		if err != nil {
			continue // Aᵀ may pivot onto a tiny element the threshold rejects
		}
		for i := range want {
			if d := math.Abs(want[i] - y[i]); d > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: y[%d] = %g, solve through Aᵀ gives %g", trial, i, y[i], want[i])
			}
		}
	}
	if _, err := (&LU{lu: New(2, 2), piv: []int{0, 1}}).SolveTInto(nil, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: want ErrShape, got %v", err)
	}
}
