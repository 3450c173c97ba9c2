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
// boxed variables, m sparse rows anchored at a random interior point so the
// problem is feasible.
func randomSparseLPSized(r *rand.Rand, n, m int) *Problem {
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
		nz := 2 + r.Intn(4)
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

// TestDifferentialSparseVsDense drives both engines over randomized bounded
// LPs: statuses must agree, objectives must match to 1e-9, and a basis
// captured by one engine must get the same warm verdict — accepted or
// rejected — from the other.
func TestDifferentialSparseVsDense(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	optimal, warmAgree := 0, 0
	for trial := 0; trial < 250; trial++ {
		p := randomSparseLP(r)
		dense, derr := SolveWith(p, Options{Engine: EngineDense, CaptureBasis: true})
		sparse, serr := SolveWith(p, Options{Engine: EngineSparse, CaptureBasis: true})
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err %v vs sparse err %v", trial, derr, serr)
		}
		if derr != nil {
			continue
		}
		if dense.Status != sparse.Status {
			t.Fatalf("trial %d: dense status %v vs sparse status %v", trial, dense.Status, sparse.Status)
		}
		if dense.Status != Optimal {
			continue
		}
		optimal++
		if d := math.Abs(dense.Objective - sparse.Objective); d > 1e-9*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: objective gap %g (dense %.15g sparse %.15g)",
				trial, d, dense.Objective, sparse.Objective)
		}
		// Warm verdicts: re-solving with the dense-captured basis must be
		// accepted or rejected identically by both engines, and either way
		// reproduce the optimum.
		dw, err := SolveWith(p, Options{Engine: EngineDense, WarmBasis: dense.Basis})
		if err != nil {
			t.Fatalf("trial %d: dense warm resolve: %v", trial, err)
		}
		sw, err := SolveWith(p, Options{Engine: EngineSparse, WarmBasis: dense.Basis})
		if err != nil {
			t.Fatalf("trial %d: sparse warm resolve: %v", trial, err)
		}
		if dw.Warm != sw.Warm {
			t.Fatalf("trial %d: warm verdict dense=%v sparse=%v for the same basis", trial, dw.Warm, sw.Warm)
		}
		if dw.Warm {
			warmAgree++
		}
		for label, sol := range map[string]*Solution{"dense": dw, "sparse": sw} {
			if sol.Status != Optimal {
				t.Fatalf("trial %d: %s warm resolve status %v", trial, label, sol.Status)
			}
			if d := math.Abs(sol.Objective - dense.Objective); d > 1e-9*(1+math.Abs(dense.Objective)) {
				t.Fatalf("trial %d: %s warm objective gap %g", trial, label, d)
			}
		}
	}
	if optimal < 100 {
		t.Fatalf("only %d/250 trials reached Optimal; generator is degenerate", optimal)
	}
	if warmAgree == 0 {
		t.Fatal("no trial exercised an accepted warm basis on both engines")
	}
	t.Logf("%d optimal trials, %d accepted warm bases on both engines", optimal, warmAgree)
}

// TestDifferentialDegenerate pins the engines against each other on
// deliberately nasty cases: fixed variables, redundant equalities, and
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
	p1 := build()
	dense, derr := SolveWith(p1, Options{Engine: EngineDense})
	p2 := build()
	sparse, serr := SolveWith(p2, Options{Engine: EngineSparse})
	if (derr == nil) != (serr == nil) {
		t.Fatalf("dense err %v vs sparse err %v", derr, serr)
	}
	if dense.Status != sparse.Status {
		t.Fatalf("dense status %v vs sparse %v", dense.Status, sparse.Status)
	}
	if math.Abs(dense.Objective-sparse.Objective) > 1e-9 {
		t.Fatalf("objective %g vs %g", dense.Objective, sparse.Objective)
	}

	// Infeasible system: both engines must prove it.
	p3 := build()
	_, _ = p3.AddSparseConstraint([]int{0, 1}, []float64{1, 1}, GE, 100)
	id, ierr := SolveWith(p3, Options{Engine: EngineDense})
	p4 := build()
	_, _ = p4.AddSparseConstraint([]int{0, 1}, []float64{1, 1}, GE, 100)
	is, serr2 := SolveWith(p4, Options{Engine: EngineSparse})
	if ierr != nil || serr2 != nil {
		t.Fatalf("unexpected errors: %v / %v", ierr, serr2)
	}
	if id.Status != Infeasible || is.Status != Infeasible {
		t.Fatalf("want Infeasible/Infeasible, got %v/%v", id.Status, is.Status)
	}
}
