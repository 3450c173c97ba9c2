package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/edsec/edattack/internal/mat"
)

// FuzzKKTPaths drives the three KKT paths over a sequence of right-hand-side
// perturbations of one dispatch-shaped QP family (see dispatchQP), sized
// below or above kktSparseMinDim by the fuzzed size:
//   - the dense path without a cache is the oracle;
//   - the dense path through one shared KKTCache must equal it bit for bit;
//   - the default path through its own shared KKTCache (bordered Schur when
//     the base is large enough) must match its objective within 1e-7
//     relative.
//
// The seed corpus lives in testdata/fuzz/FuzzKKTPaths; explore further with
// go test -run '^$' -fuzz FuzzKKTPaths -fuzztime 20s ./internal/qp.
func FuzzKKTPaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, steps uint8) {
		n := 2 + int(size)%30 // KKT base dimension n+1 spans both sides of kktSparseMinDim
		build := family(func(r *rand.Rand) (*Problem, []int64) { return dispatchQP(r, n) }, seed)
		r := rand.New(rand.NewSource(^seed))
		dense, schur := &KKTCache{}, &KKTCache{}
		for step := 0; step <= int(steps)%12; step++ {
			p, keys := build(r.Float64()-0.5, 2*r.Float64()-1)
			want, werr := SolveWith(p, Options{DenseKKT: true})
			got, gerr := SolveWith(p, Options{DenseKKT: true, Cache: dense, RowKeys: keys})
			alt, aerr := SolveWith(p, Options{Cache: schur, RowKeys: keys})
			if (werr == nil) != (gerr == nil) || (werr == nil) != (aerr == nil) {
				t.Fatalf("step %d (n=%d): oracle err %v, cached dense err %v, default err %v", step, n, werr, gerr, aerr)
			}
			if werr != nil {
				continue
			}
			if d := solutionDiff(want, got); d != "" {
				t.Fatalf("step %d (n=%d): cached dense vs oracle: %s", step, n, d)
			}
			if d := math.Abs(want.Objective - alt.Objective); d > 1e-7*(1+math.Abs(want.Objective)) {
				t.Fatalf("step %d (n=%d): default path objective %.12g, oracle %.12g", step, n, alt.Objective, want.Objective)
			}
		}
	})
}

// FuzzDualVsPrimal checks the dual method against the primal method with
// an LP feasible start (the oracle, reached through solvePrimal) over a
// sequence of right-hand-side perturbations of one QP family. The shape
// byte picks the family: plain dispatch-shaped (see dispatchQP), demand
// near or past the generation limits, duplicated rows, dependent rows, or
// tight bounds. The dual method runs twice — on the default KKT path
// through a shared KKTCache and on the uncached dense path — and each run
// must agree with the oracle on the ErrInfeasible verdict, on x within
// 1e-9·(1+|x|), and on the objective within 1e-9 relative.
//
// The seed corpus lives in testdata/fuzz/FuzzDualVsPrimal; explore further
// with go test -run '^$' -fuzz FuzzDualVsPrimal -fuzztime 20s ./internal/qp.
func FuzzDualVsPrimal(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, shape, steps uint8) {
		n := 2 + int(size)%30
		build := family(func(r *rand.Rand) (*Problem, []int64) { return shapedQP(r, n, shape%5) }, seed)
		r := rand.New(rand.NewSource(^seed))
		cache := &KKTCache{}
		for step := 0; step <= int(steps)%8; step++ {
			p, keys := build(r.Float64()-0.5, 2*r.Float64()-1)
			want, werr := solvePrimal(p, Options{})
			if werr != nil && !errors.Is(werr, ErrInfeasible) {
				t.Fatalf("step %d (n=%d shape=%d): oracle: %v", step, n, shape%5, werr)
			}
			for _, o := range []Options{{Cache: cache, RowKeys: keys}, {DenseKKT: true}} {
				got, gerr := SolveWith(p, o)
				if gerr != nil && !errors.Is(gerr, ErrInfeasible) || (werr == nil) != (gerr == nil) {
					t.Fatalf("step %d (n=%d shape=%d dense=%v): oracle err %v, dual err %v", step, n, shape%5, o.DenseKKT, werr, gerr)
				}
				if werr != nil {
					continue
				}
				for j, x := range want.X {
					if d := math.Abs(got.X[j] - x); d > 1e-9*(1+math.Abs(x)) {
						t.Fatalf("step %d (n=%d shape=%d dense=%v): x[%d] = %.15g, oracle %.15g", step, n, shape%5, o.DenseKKT, j, got.X[j], x)
					}
				}
				if d := math.Abs(got.Objective - want.Objective); d > 1e-9*(1+math.Abs(want.Objective)) {
					t.Fatalf("step %d (n=%d shape=%d dense=%v): objective %.15g, oracle %.15g", step, n, shape%5, o.DenseKKT, got.Objective, want.Objective)
				}
			}
		}
	})
}

// shapedQP draws a dispatchQP with n variables and reshapes it:
//
//	0: as drawn;
//	1: the balance target moved to within ±0.5 of the sum of the lower or
//	   the upper bounds, so most problems are infeasible, some barely
//	   feasible;
//	2: some inequality rows duplicated, with equal or looser limits;
//	3: dependent rows — the sum of two rows with the summed limit, and the
//	   balance row itself as an inequality;
//	4: tight bounds — some units fixed (lo = hi) or nearly so.
//
// Every row gets its own key: duplicated gradients under distinct keys are
// within the KKTCache contract.
func shapedQP(r *rand.Rand, n int, shape uint8) (*Problem, []int64) {
	p, keys := dispatchQP(r, n)
	addRow := func(g []float64, h float64) {
		_, _ = p.AddInequality(g, h)
		keys = append(keys, int64(len(keys)))
	}
	switch shape {
	case 1:
		side := p.upper
		if r.Intn(2) == 0 {
			side = p.lower
		}
		p.beq[0] = mat.Sum(side) + r.Float64() - 0.5
	case 2:
		for i, m := 0, len(p.gin); i < m; i++ {
			if r.Intn(2) == 0 {
				addRow(p.gin[i], p.hin[i]+float64(r.Intn(2))*r.Float64())
			}
		}
	case 3:
		a, b := r.Intn(len(p.gin)), r.Intn(len(p.gin))
		sum := make([]float64, n)
		for j := range sum {
			sum[j] = p.gin[a][j] + p.gin[b][j]
		}
		addRow(sum, p.hin[a]+p.hin[b])
		addRow(p.aeq[0], p.beq[0]+r.Float64())
	case 4:
		for j := 0; j < n; j++ {
			switch r.Intn(4) {
			case 0:
				p.upper[j] = p.lower[j]
			case 1:
				p.upper[j] = p.lower[j] + 1e-7
			}
		}
	}
	return p, keys
}
