package milp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/edsec/edattack/internal/lp"
)

// randKnapsack builds a random binary knapsack and its brute-force optimum.
func randKnapsack(r *rand.Rand) (*Problem, float64) {
	n := 4 + r.Intn(7)
	c := make([]float64, n)
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		c[j] = 1 + 9*r.Float64()
		w[j] = 1 + 9*r.Float64()
	}
	capacity := 0.4 * float64(n) * 5
	base := lp.NewProblem(n)
	_ = base.SetObjective(c, true)
	_, _ = base.AddConstraint(w, lp.LE, capacity)
	p := NewProblem(base)
	for j := 0; j < n; j++ {
		_ = p.SetBinary(j)
	}
	return p, bruteKnapsack(c, w, capacity)
}

// randKKTBigM builds a random big-M instance shaped like the bilevel KKT
// reformulation: per pair i, a dual λ_i ≥ 0 and a slack s_i ∈ [0, U_i] with
// indicator rows λ_i ≤ M·μ_i and s_i ≤ M·(1 − μ_i) for binary μ_i, plus a
// stationarity-style equality coupling the duals. M is deliberately huge, as
// in the paper's big-M reformulation.
func randKKTBigM(r *rand.Rand) *Problem {
	n := 2 + r.Intn(5)
	const M = 1e5
	// Vars: λ_0..λ_{n-1}, s_0..s_{n-1}, μ_0..μ_{n-1}.
	base := lp.NewProblem(3 * n)
	obj := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		obj[i] = 1 + 4*r.Float64()     // reward λ
		obj[n+i] = 0.5 + 2*r.Float64() // reward s
		_ = base.SetBounds(i, 0, math.Inf(1))
		_ = base.SetBounds(n+i, 0, 2+6*r.Float64())
	}
	_ = base.SetObjective(obj, true)
	// Stationarity-style coupling: Σ a_i λ_i = b bounds every λ.
	av := make([]float64, n)
	ai := make([]int, n)
	var amin float64 = math.Inf(1)
	for i := 0; i < n; i++ {
		av[i] = 0.5 + r.Float64()
		ai[i] = i
		amin = math.Min(amin, av[i])
	}
	b := (1 + 3*r.Float64()) * amin
	_, _ = base.AddSparseConstraint(ai, av, lp.EQ, b)
	for i := 0; i < n; i++ {
		// λ_i − M μ_i ≤ 0 and s_i + M μ_i ≤ M.
		_, _ = base.AddSparseConstraint([]int{i, 2*n + i}, []float64{1, -M}, lp.LE, 0)
		_, _ = base.AddSparseConstraint([]int{n + i, 2*n + i}, []float64{1, M}, lp.LE, M)
	}
	p := NewProblem(base)
	for i := 0; i < n; i++ {
		_ = p.SetBinary(2*n + i)
	}
	return p
}

// TestSolveRestoresProblem checks the restore path directly on one big-M
// instance: row count, coefficients, relations, RHS, and bounds all return to
// their pre-solve values after a search that branched on the binaries, so
// row-generation callers can keep growing the same problem.
func TestSolveRestoresProblem(t *testing.T) {
	p := randKKTBigM(rand.New(rand.NewSource(42)))
	snap := func() ([]lp.Constraint, [][2]float64) {
		rows := make([]lp.Constraint, p.Base.NumConstraints())
		for i := range rows {
			rows[i] = p.Base.ConstraintAt(i)
		}
		bounds := make([][2]float64, p.Base.NumVars())
		for j := range bounds {
			lo, hi := p.Base.Bounds(j)
			bounds[j] = [2]float64{lo, hi}
		}
		return rows, bounds
	}
	rows0, bounds0 := snap()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes < 2 {
		t.Fatalf("search solved %d nodes: no branch fixed a bound to restore", sol.Nodes)
	}
	rows1, bounds1 := snap()
	if len(rows0) != len(rows1) {
		t.Fatalf("row count %d → %d", len(rows0), len(rows1))
	}
	for i := range rows0 {
		a, b := rows0[i], rows1[i]
		if a.Rel != b.Rel || a.RHS != b.RHS {
			t.Fatalf("row %d changed: %v %v vs %v %v", i, a.Rel, a.RHS, b.Rel, b.RHS)
		}
		for j := range a.Coeffs {
			if a.Coeffs[j] != b.Coeffs[j] {
				t.Fatalf("row %d coefficient %d changed: %g vs %g", i, j, a.Coeffs[j], b.Coeffs[j])
			}
		}
	}
	for j := range bounds0 {
		if bounds0[j] != bounds1[j] {
			t.Fatalf("bounds of var %d changed: %v vs %v", j, bounds0[j], bounds1[j])
		}
	}
}

// TestFrontierBestBound checks the truncation bound over an open stack in
// both senses, and that pops come back newest first with the preferred
// child on top.
func TestFrontierBestBound(t *testing.T) {
	f := newFrontier(true)
	f.pushChildren(node{score: 3}, node{score: 7})
	if b := f.bestBound(); b != 7 {
		t.Fatalf("bestBound = %v, want 7", b)
	}
	if n, _ := f.pop(); n.score != 3 {
		t.Fatalf("popped %v first, want the preferred child 3", n.score)
	}
	fmin := newFrontier(false)
	fmin.push(node{score: 3})
	fmin.push(node{score: -2})
	if b := fmin.bestBound(); b != -2 {
		t.Fatalf("min-sense bestBound = %v, want -2", b)
	}
	fmin.pop()
	fmin.pop()
	if _, ok := fmin.pop(); ok || !math.IsInf(fmin.bestBound(), 1) {
		t.Fatalf("empty frontier: pop ok=%v bestBound %v", ok, fmin.bestBound())
	}
}

// TestNodeLimitBestBound: a truncated knapsack must report a finite bound at
// least as good as the true optimum and a non-negative gap.
func TestNodeLimitBestBound(t *testing.T) {
	p, want := randKnapsack(rand.New(rand.NewSource(99)))
	sol, err := SolveWith(p, Options{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != NodeLimit {
		t.Fatalf("status %v, want node-limit", sol.Status)
	}
	if math.IsInf(sol.BestBound, 0) || sol.BestBound < want-1e-9 {
		t.Fatalf("BestBound %v does not dominate the optimum %v", sol.BestBound, want)
	}
	if sol.Gap < 0 {
		t.Fatalf("negative gap %v", sol.Gap)
	}
}
