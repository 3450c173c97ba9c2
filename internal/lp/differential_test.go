package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomSparseLP builds a larger anchored LP with sparse rows. The engines
// under test are forced explicitly (Options.Engine), so the size
// is fixed rather than tied to the selection cutover: 8–27 rows keeps 250
// trials fast and the cross-engine float drift within the 1e-9 oracle
// tolerance, which larger systems would not.
func randomSparseLP(r *rand.Rand) *Problem {
	n := 10 + r.Intn(30)
	m := 8 + r.Intn(20)
	return randomSparseLPSized(r, n, m)
}

// randomSparseLPSized is randomSparseLP's generator at a given shape: n
// boxed variables, m rows of 2–5 nonzeros anchored at a random interior
// point so the problem is feasible.
func randomSparseLPSized(r *rand.Rand, n, m int) *Problem {
	return anchoredLP(r, n, m, func() int { return 2 + r.Intn(4) })
}

// randomLPShaped is the same generator with exactly nz nonzeros per row, so
// the problem's density is nz/n.
func randomLPShaped(r *rand.Rand, n, m, nz int) *Problem {
	return anchoredLP(r, n, m, func() int { return nz })
}

// anchoredLP draws n boxed variables, a random objective, and m rows of
// rowNZ() distinct nonzeros each, every row an LE, GE or EQ that a random
// interior point satisfies.
func anchoredLP(r *rand.Rand, n, m int, rowNZ func() int) *Problem {
	p := NewProblem(n)
	x0 := make([]float64, n)
	c := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := -5 + 10*r.Float64()
		hi := lo + 0.5 + 5*r.Float64()
		_ = p.SetBounds(j, lo, hi)
		x0[j] = lo + (hi-lo)*r.Float64()
		c[j] = -2 + 4*r.Float64()
	}
	_ = p.SetObjective(c, r.Intn(2) == 0)
	for i := 0; i < m; i++ {
		nz := rowNZ()
		ind := make([]int, 0, nz)
		val := make([]float64, 0, nz)
		seen := make(map[int]bool, nz)
		for len(ind) < nz {
			j := r.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			ind = append(ind, j)
			val = append(val, -1+2*r.Float64())
		}
		act := 0.0
		for k, j := range ind {
			act += val[k] * x0[j]
		}
		switch r.Intn(3) {
		case 0:
			_, _ = p.AddSparseConstraint(ind, val, LE, act+r.Float64())
		case 1:
			_, _ = p.AddSparseConstraint(ind, val, GE, act-r.Float64())
		default:
			_, _ = p.AddSparseConstraint(ind, val, EQ, act)
		}
	}
	return p
}

// TestDifferentialSparseVsDense drives the engine on both basis kernels
// over randomized bounded LPs against the tableau oracle: statuses must
// agree, objectives must match to 1e-9, and a basis captured on the dense
// kernel must get the same warm verdict — accepted or rejected — from both
// kernels, each reproducing the optimum.
func TestDifferentialSparseVsDense(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	optimal, warmAgree := 0, 0
	for trial := 0; trial < 250; trial++ {
		p := randomSparseLP(r)
		want, werr := solveTableau(p, Options{})
		var got [2]*Solution
		for k, kn := range kernels {
			sol, err := SolveWith(p, withKernel(Options{CaptureBasis: true}, kn.k))
			if (werr == nil) != (err == nil) {
				t.Fatalf("trial %d: oracle err %v vs %s err %v", trial, werr, kn.name, err)
			}
			if err != nil {
				continue
			}
			if sol.Status != want.Status {
				t.Fatalf("trial %d: oracle status %v vs %s status %v", trial, want.Status, kn.name, sol.Status)
			}
			if sol.Status == Optimal && math.Abs(sol.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
				t.Fatalf("trial %d: %s objective %.15g, oracle %.15g", trial, kn.name, sol.Objective, want.Objective)
			}
			got[k] = sol
		}
		if werr != nil || want.Status != Optimal {
			continue
		}
		optimal++
		// Warm verdicts: re-solving with the dense-captured basis must be
		// accepted or rejected identically by both kernels, and either way
		// reproduce the optimum.
		var warm [2]*Solution
		for k, kn := range kernels {
			sol, err := SolveWith(p, withKernel(Options{WarmBasis: got[0].Basis}, kn.k))
			if err != nil {
				t.Fatalf("trial %d: %s warm resolve: %v", trial, kn.name, err)
			}
			if sol.Status != Optimal {
				t.Fatalf("trial %d: %s warm resolve status %v", trial, kn.name, sol.Status)
			}
			if d := math.Abs(sol.Objective - want.Objective); d > 1e-9*(1+math.Abs(want.Objective)) {
				t.Fatalf("trial %d: %s warm objective gap %g", trial, kn.name, d)
			}
			warm[k] = sol
		}
		if warm[0].Warm != warm[1].Warm {
			t.Fatalf("trial %d: warm verdict dense=%v sparse=%v for the same basis", trial, warm[0].Warm, warm[1].Warm)
		}
		if warm[0].Warm {
			warmAgree++
		}
	}
	if optimal < 100 {
		t.Fatalf("only %d/250 trials reached Optimal; generator is degenerate", optimal)
	}
	if warmAgree == 0 {
		t.Fatal("no trial exercised an accepted warm basis on both kernels")
	}
	t.Logf("%d optimal trials, %d accepted warm bases on both kernels", optimal, warmAgree)
}

// TestDifferentialDegenerate pins both kernels against the tableau oracle
// on deliberately nasty cases: fixed variables, redundant equalities, and
// infeasible rows.
func TestDifferentialDegenerate(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(12)
		for j := 0; j < 12; j++ {
			_ = p.SetBounds(j, 0, 4)
		}
		_ = p.SetBounds(3, 2, 2) // fixed variable
		c := make([]float64, 12)
		for j := range c {
			c[j] = float64(j%3) - 1
		}
		_ = p.SetObjective(c, false)
		row := make([]float64, 12)
		for j := range row {
			row[j] = 1
		}
		_, _ = p.AddConstraint(row, LE, 30)
		_, _ = p.AddConstraint(row, LE, 30) // redundant duplicate
		_, _ = p.AddSparseConstraint([]int{0, 1}, []float64{1, 1}, EQ, 3)
		_, _ = p.AddSparseConstraint([]int{0, 1}, []float64{2, 2}, EQ, 6) // dependent equality
		for i := 0; i < 6; i++ {
			_, _ = p.AddSparseConstraint([]int{i, i + 4}, []float64{1, -1}, GE, -3)
		}
		return p
	}
	want, werr := solveTableau(build(), Options{})
	// Infeasible system: every solver must prove it.
	infeasible := func() *Problem {
		p := build()
		_, _ = p.AddSparseConstraint([]int{0, 1}, []float64{1, 1}, GE, 100)
		return p
	}
	if iw, err := solveTableau(infeasible(), Options{}); err != nil || iw.Status != Infeasible {
		t.Fatalf("oracle on the infeasible system: %v, %v", iw, err)
	}
	for _, kn := range kernels {
		sol, err := SolveWith(build(), withKernel(Options{}, kn.k))
		if (werr == nil) != (err == nil) {
			t.Fatalf("%s: err %v, oracle err %v", kn.name, err, werr)
		}
		if sol.Status != want.Status {
			t.Fatalf("%s: status %v, oracle %v", kn.name, sol.Status, want.Status)
		}
		if math.Abs(sol.Objective-want.Objective) > 1e-9 {
			t.Fatalf("%s: objective %g, oracle %g", kn.name, sol.Objective, want.Objective)
		}
		is, err := SolveWith(infeasible(), withKernel(Options{}, kn.k))
		if err != nil || is.Status != Infeasible {
			t.Fatalf("%s on the infeasible system: %v, %v", kn.name, is, err)
		}
	}
}
