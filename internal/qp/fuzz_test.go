package qp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/edsec/edattack/internal/mat"
)

// FuzzKKTPaths drives the two KKT paths over a sequence of right-hand-side
// perturbations of one dispatch-shaped QP family (see dispatchQP) of the
// fuzzed size: the default path through one shared KKTCache (the bordered
// Schur reduction) must match the oracle — a fresh dense factorization of
// every KKT system, without a cache — on its objective within 1e-7
// relative.
//
// The seed corpus lives in testdata/fuzz/FuzzKKTPaths; explore further with
// go test -run '^$' -fuzz FuzzKKTPaths -fuzztime 20s ./internal/qp.
func FuzzKKTPaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, steps uint8) {
		n := 2 + int(size)%30
		build := family(func(r *rand.Rand) *Problem { return dispatchQP(r, n) }, seed)
		r := rand.New(rand.NewSource(^seed))
		cache := &KKTCache{}
		for step := 0; step <= int(steps)%12; step++ {
			p := build(r.Float64()-0.5, 2*r.Float64()-1)
			want, werr := solveDenseKKT(p, Options{})
			alt, aerr := SolveWith(p, Options{Cache: cache})
			if (werr == nil) != (aerr == nil) {
				t.Fatalf("step %d (n=%d): oracle err %v, default err %v", step, n, werr, aerr)
			}
			if werr != nil {
				continue
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
// byte picks the family (shape%5): plain dispatch-shaped (see dispatchQP),
// demand near or past the generation limits, duplicated rows, dependent
// rows, or tight bounds; and whether rows get random sides (shape/5 odd):
// two-sided or lower-only rows, and open rows with both sides infinite at
// the end. The dual method runs three ways — cold on the default KKT path
// through a shared KKTCache, cold on the uncached dense path, and on the
// default path hot-started from one WorkingSet carried across the steps —
// and each run must agree with the oracle on the ErrInfeasible verdict, on
// x within 1e-9·(1+|x|), and on the objective within 1e-9 relative. The
// hot run must also equal the cold cached run bit for bit in everything
// but Iterations, and a problem with open rows must solve bit for bit as
// the same problem with them omitted, with zero multipliers on them.
//
// The seed corpus lives in testdata/fuzz/FuzzDualVsPrimal; explore further
// with go test -run '^$' -fuzz FuzzDualVsPrimal -fuzztime 20s ./internal/qp.
func FuzzDualVsPrimal(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, shape, steps uint8) {
		n := 2 + int(size)%30
		sides := shape/5%2 == 1
		build := family(func(r *rand.Rand) *Problem { return shapedQP(r, n, shape%5, sides) }, seed)
		r := rand.New(rand.NewSource(^seed))
		cache, start := &KKTCache{}, &WorkingSet{}
		for step := 0; step <= int(steps)%8; step++ {
			p := build(r.Float64()-0.5, 2*r.Float64()-1)
			want, werr := solvePrimal(p, Options{})
			if werr != nil && !errors.Is(werr, ErrInfeasible) {
				t.Fatalf("step %d (n=%d shape=%d): oracle: %v", step, n, shape%10, werr)
			}
			var cold *Solution
			for _, leg := range []struct {
				name  string
				solve func(*Problem, Options) (*Solution, error)
				o     Options
			}{
				{"cached", SolveWith, Options{Cache: cache}},
				{"dense", solveDenseKKT, Options{}},
				{"hot", SolveWith, Options{Cache: cache, Start: start}},
			} {
				label := fmt.Sprintf("step %d (n=%d shape=%d %s)", step, n, shape%10, leg.name)
				got, gerr := leg.solve(p, leg.o)
				if gerr != nil && !errors.Is(gerr, ErrInfeasible) || (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: oracle err %v, dual err %v", label, werr, gerr)
				}
				if werr != nil {
					continue
				}
				for j, x := range want.X {
					if d := math.Abs(got.X[j] - x); d > 1e-9*(1+math.Abs(x)) {
						t.Fatalf("%s: x[%d] = %.15g, oracle %.15g", label, j, got.X[j], x)
					}
				}
				if d := math.Abs(got.Objective - want.Objective); d > 1e-9*(1+math.Abs(want.Objective)) {
					t.Fatalf("%s: objective %.15g, oracle %.15g", label, got.Objective, want.Objective)
				}
				if cold == nil {
					cold = got
				} else if leg.o.Start != nil {
					hot := *got
					hot.Iterations = cold.Iterations
					if d := solutionDiff(cold, &hot); d != "" {
						t.Fatalf("%s: hot vs cold: %s", label, d)
					}
				}
			}
			if sides {
				checkOpenRowsOmitted(t, fmt.Sprintf("step %d (n=%d shape=%d)", step, n, shape%10), p)
			}
		}
	})
}

// checkOpenRowsOmitted solves p and p without its trailing open rows (both
// sides infinite) uncached: the verdicts and every field of the solutions
// must be identical, and the open rows' multipliers zero.
func checkOpenRowsOmitted(t *testing.T, label string, p *Problem) {
	t.Helper()
	q := *p
	m := len(q.gin)
	for m > 0 && math.IsInf(q.hin[m-1], 1) && math.IsInf(q.lin[m-1], -1) {
		m--
	}
	if m == len(p.gin) {
		t.Fatalf("%s: no open rows to omit", label)
	}
	q.gin, q.hin, q.lin = q.gin[:m], q.hin[:m], q.lin[:m]
	got, gerr := SolveWith(p, Options{})
	want, werr := SolveWith(&q, Options{})
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: err %v with open rows, %v without", label, gerr, werr)
	}
	if gerr != nil {
		return
	}
	for _, l := range got.IneqDual[m:] {
		if l != 0 {
			t.Fatalf("%s: open row multiplier %g", label, l)
		}
	}
	trimmed := *got
	trimmed.IneqDual = got.IneqDual[:m]
	if d := solutionDiff(want, &trimmed); d != "" {
		t.Fatalf("%s: with open rows vs omitted: %s", label, d)
	}
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
// With sides, each row then stays one-sided, gains a lower side, or trades
// its upper side for a lower one, and one to three open rows (random
// gradients, both sides infinite) are appended. Every row has its own
// index, and so its own cache key: duplicated gradients under distinct
// rows are within the KKTCache contract.
func shapedQP(r *rand.Rand, n int, shape uint8, sides bool) *Problem {
	p := dispatchQP(r, n)
	addRow := func(g []float64, h float64) { _, _ = p.AddInequality(g, h) }
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
	if !sides {
		return p
	}
	inf := math.Inf(1)
	for i, hi := range p.hin {
		lo := hi - 0.4 - 2*r.Float64()
		switch r.Intn(3) {
		case 1:
			_ = p.SetRowBounds(i, lo, hi)
		case 2:
			_ = p.SetRowBounds(i, lo, inf)
		}
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		g := make([]float64, n)
		for j := range g {
			g[j] = -1 + 2*r.Float64()
		}
		i, _ := p.AddInequality(g, 0)
		_ = p.SetRowBounds(i, -inf, inf)
	}
	return p
}
