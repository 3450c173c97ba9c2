package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/edsec/edattack/internal/mat"
)

const tol = 1e-6

func TestUnconstrainedMin(t *testing.T) {
	// min (x-3)² + (y+1)² → x=3, y=-1. H = 2I, c = (-6, 2).
	p := NewProblem(2)
	_ = p.SetQuadCoeff(0, 0, 2)
	_ = p.SetQuadCoeff(1, 1, 2)
	_ = p.SetLinCoeff(0, -6)
	_ = p.SetLinCoeff(1, 2)
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.X[0]-3) > tol || math.Abs(sol.X[1]+1) > tol {
		t.Fatalf("x = %v, want [3 -1]", sol.X)
	}
}

func TestBoundHitsOptimum(t *testing.T) {
	// min (x-3)² with x ≤ 2 → x=2.
	p := NewProblem(1)
	_ = p.SetQuadCoeff(0, 0, 2)
	_ = p.SetLinCoeff(0, -6)
	_ = p.SetBounds(0, math.Inf(-1), 2)
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.X[0]-2) > tol {
		t.Fatalf("x = %v, want 2", sol.X[0])
	}
	if sol.UpperDual[0] < tol {
		t.Fatalf("upper bound dual = %v, want > 0", sol.UpperDual[0])
	}
}

func TestEqualityConstrained(t *testing.T) {
	// min x² + y² s.t. x + y = 2 → x=y=1, duals ν = -2.
	p := NewProblem(2)
	_ = p.SetQuadCoeff(0, 0, 2)
	_ = p.SetQuadCoeff(1, 1, 2)
	if _, err := p.AddEquality([]float64{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.X[0]-1) > tol || math.Abs(sol.X[1]-1) > tol {
		t.Fatalf("x = %v, want [1 1]", sol.X)
	}
	if math.Abs(sol.Objective-2) > tol {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
	// Stationarity: Hx + c + Aᵀν = 0 → 2·1 + ν = 0 → ν = -2.
	if math.Abs(sol.EqDual[0]+2) > tol {
		t.Fatalf("eq dual = %v, want -2", sol.EqDual[0])
	}
}

func TestInequalityActive(t *testing.T) {
	// min (x-2)² + (y-2)² s.t. x + y ≤ 2 → x=y=1.
	p := NewProblem(2)
	_ = p.SetQuadCoeff(0, 0, 2)
	_ = p.SetQuadCoeff(1, 1, 2)
	_ = p.SetLinCoeff(0, -4)
	_ = p.SetLinCoeff(1, -4)
	if _, err := p.AddInequality([]float64{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.X[0]-1) > tol || math.Abs(sol.X[1]-1) > tol {
		t.Fatalf("x = %v, want [1 1]", sol.X)
	}
	if sol.IneqDual[0] < tol {
		t.Fatalf("ineq dual = %v, want > 0", sol.IneqDual[0])
	}
}

func TestInequalityInactive(t *testing.T) {
	// min (x-1)² s.t. x ≤ 100 → x=1 with zero dual.
	p := NewProblem(1)
	_ = p.SetQuadCoeff(0, 0, 2)
	_ = p.SetLinCoeff(0, -2)
	_, _ = p.AddInequality([]float64{1}, 100)
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.X[0]-1) > tol || sol.IneqDual[0] > tol {
		t.Fatalf("x = %v dual = %v", sol.X, sol.IneqDual)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetQuadCoeff(0, 0, 2)
	_ = p.SetBounds(0, 0, 1)
	_, _ = p.AddInequality([]float64{-1}, -5) // x >= 5
	if _, err := Solve(p); err == nil {
		t.Fatal("want infeasibility error")
	}
}

func TestDispatchShapedQP(t *testing.T) {
	// Two generators with quadratic costs serving demand 10 under a tie
	// line limit: min p1² + 2p2² s.t. p1 + p2 = 10, 0 ≤ p ≤ 8.
	// Unconstrained split: p1 = 20/3, p2 = 10/3 (marginal costs equal).
	p := NewProblem(2)
	_ = p.SetQuadCoeff(0, 0, 2)
	_ = p.SetQuadCoeff(1, 1, 4)
	_ = p.SetBounds(0, 0, 8)
	_ = p.SetBounds(1, 0, 8)
	_, _ = p.AddEquality([]float64{1, 1}, 10)
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.X[0]-20.0/3) > 1e-5 || math.Abs(sol.X[1]-10.0/3) > 1e-5 {
		t.Fatalf("x = %v, want [6.667 3.333]", sol.X)
	}
}

func TestAPIErrors(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetQuadCoeff(5, 0, 1); err == nil {
		t.Fatal("want quad index error")
	}
	if err := p.SetLinCoeff(-1, 1); err == nil {
		t.Fatal("want lin index error")
	}
	if err := p.SetBounds(0, 2, 1); err == nil {
		t.Fatal("want inverted bound error")
	}
	if err := p.SetBounds(7, 0, 1); err == nil {
		t.Fatal("want bound index error")
	}
	if _, err := p.AddEquality([]float64{1}, 0); err == nil {
		t.Fatal("want equality length error")
	}
	if _, err := p.AddInequality([]float64{1}, 0); err == nil {
		t.Fatal("want inequality length error")
	}
	if err := p.SetRowBounds(0, 0, 1); err == nil {
		t.Fatal("want row index error")
	}
	if err := p.SetEqualityRHS(0, 1); err == nil {
		t.Fatal("want equality index error")
	}
	_, _ = p.AddInequality([]float64{1, 1}, 1)
	if err := p.SetRowBounds(0, 2, 1); err == nil {
		t.Fatal("want inverted row bounds error")
	}
	if p.NumVars() != 2 {
		t.Fatal("NumVars")
	}
}

// kktResidual measures stationarity: Hx + c + Aᵀν + Gᵀλ − μˡ + μᵘ.
func kktResidual(p *Problem, s *Solution) float64 {
	hx, _ := p.h.MulVec(s.X)
	r := mat.AxPlusY(1, hx, p.c)
	for e, a := range p.aeq {
		for j, v := range a {
			r[j] += s.EqDual[e] * v
		}
	}
	for i, g := range p.gin {
		for j, v := range g {
			r[j] += s.IneqDual[i] * v
		}
	}
	for j := 0; j < p.n; j++ {
		r[j] -= s.LowerDual[j]
		r[j] += s.UpperDual[j]
	}
	return mat.NormInf(r)
}

// randomQP builds a random strictly convex QP anchored at a feasible point.
func randomQP(r *rand.Rand) *Problem {
	n := 2 + r.Intn(5)
	p := NewProblem(n)
	for i := 0; i < n; i++ {
		_ = p.SetQuadCoeff(i, i, 0.5+2*r.Float64())
		_ = p.SetLinCoeff(i, -2+4*r.Float64())
		lo := -4 + 4*r.Float64()
		_ = p.SetBounds(i, lo, lo+1+4*r.Float64())
	}
	x0 := make([]float64, n)
	for i := range x0 {
		lo, hi := p.lower[i], p.upper[i]
		x0[i] = lo + (hi-lo)*r.Float64()
	}
	for k := 0; k < 1+r.Intn(3); k++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = -1 + 2*r.Float64()
		}
		act := mat.Dot(row, x0)
		if r.Intn(2) == 0 {
			_, _ = p.AddInequality(row, act+r.Float64())
		} else {
			_, _ = p.AddEquality(row, act)
		}
	}
	return p
}

// Property: solutions satisfy KKT stationarity, primal feasibility, dual
// feasibility, and complementary slackness.
func TestPropertyKKT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomQP(r)
		sol, err := Solve(p)
		if err != nil {
			return true // rare random infeasibility is acceptable
		}
		if kktResidual(p, sol) > 1e-5 {
			return false
		}
		for j := 0; j < p.n; j++ {
			if sol.X[j] < p.lower[j]-1e-6 || sol.X[j] > p.upper[j]+1e-6 {
				return false
			}
			if sol.LowerDual[j] < -1e-9 || sol.UpperDual[j] < -1e-9 {
				return false
			}
		}
		for i, g := range p.gin {
			act := mat.Dot(g, sol.X)
			if act > p.hin[i]+1e-6 {
				return false
			}
			if sol.IneqDual[i] < -1e-9 {
				return false
			}
			// Complementary slackness.
			if sol.IneqDual[i] > 1e-5 && p.hin[i]-act > 1e-4 {
				return false
			}
		}
		for e, a := range p.aeq {
			if math.Abs(mat.Dot(a, sol.X)-p.beq[e]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the QP optimum dominates random feasible perturbations projected
// back into the box (local optimality spot-check).
func TestPropertyOptimalityAgainstBoxPoints(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		p := NewProblem(n)
		for i := 0; i < n; i++ {
			_ = p.SetQuadCoeff(i, i, 1+r.Float64())
			_ = p.SetLinCoeff(i, -1+2*r.Float64())
			_ = p.SetBounds(i, -2, 2)
		}
		sol, err := Solve(p)
		if err != nil {
			return false
		}
		obj := func(x []float64) float64 {
			hx, _ := p.h.MulVec(x)
			return 0.5*mat.Dot(x, hx) + mat.Dot(p.c, x)
		}
		for k := 0; k < 20; k++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = -2 + 4*r.Float64()
			}
			if obj(x) < sol.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsNonFiniteInput pins input validation on every QP setter:
// non-finite Hessian, linear, and constraint coefficients and right-hand
// sides, and NaN or inverted-infinite bounds, are errors.
func TestRejectsNonFiniteInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(p *Problem) error
	}{
		{"quad NaN", func(p *Problem) error { return p.SetQuadCoeff(0, 1, nan) }},
		{"quad Inf", func(p *Problem) error { return p.SetQuadCoeff(0, 0, inf) }},
		{"lin NaN", func(p *Problem) error { return p.SetLinCoeff(1, nan) }},
		{"lin -Inf", func(p *Problem) error { return p.SetLinCoeff(0, -inf) }},
		{"lower NaN", func(p *Problem) error { return p.SetBounds(0, nan, 1) }},
		{"upper NaN", func(p *Problem) error { return p.SetBounds(0, 0, nan) }},
		{"lower +Inf", func(p *Problem) error { return p.SetBounds(0, inf, inf) }},
		{"upper -Inf", func(p *Problem) error { return p.SetBounds(0, -inf, -inf) }},
		{"equality coeff NaN", func(p *Problem) error { _, err := p.AddEquality([]float64{1, nan}, 1); return err }},
		{"equality rhs Inf", func(p *Problem) error { _, err := p.AddEquality([]float64{1, 1}, inf); return err }},
		{"inequality coeff Inf", func(p *Problem) error { _, err := p.AddInequality([]float64{-inf, 1}, 1); return err }},
		{"inequality rhs NaN", func(p *Problem) error { _, err := p.AddInequality([]float64{1, 1}, nan); return err }},
		{"row lower NaN", func(p *Problem) error { return withRow(p).SetRowBounds(0, nan, 1) }},
		{"row upper NaN", func(p *Problem) error { return withRow(p).SetRowBounds(0, 0, nan) }},
		{"row lower +Inf", func(p *Problem) error { return withRow(p).SetRowBounds(0, inf, inf) }},
		{"row upper -Inf", func(p *Problem) error { return withRow(p).SetRowBounds(0, -inf, -inf) }},
		{"equality target Inf", func(p *Problem) error {
			_, _ = p.AddEquality([]float64{1, 1}, 1)
			return p.SetEqualityRHS(0, inf)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.set(NewProblem(2)); err == nil {
				t.Fatal("setter accepted non-finite input")
			}
		})
	}
	if err := NewProblem(1).SetBounds(0, math.Inf(-1), math.Inf(1)); err != nil {
		t.Fatalf("free variable rejected: %v", err)
	}
	if err := withRow(NewProblem(2)).SetRowBounds(0, math.Inf(-1), math.Inf(1)); err != nil {
		t.Fatalf("open row rejected: %v", err)
	}
}

// withRow adds the inequality row x₀ + x₁ ≤ 1 to a two-variable p.
func withRow(p *Problem) *Problem {
	_, _ = p.AddInequality([]float64{1, 1}, 1)
	return p
}

// TestTwoSidedRow: minimizing x₀² + x₁² under lo ≤ x₀ + x₁ ≤ hi puts the
// optimum at (t/2, t/2) with t the nearer side (or 0 between them), and
// IneqDual is λ_hi − λ_lo: +|t| at the upper side, −|t| at the lower one.
func TestTwoSidedRow(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct{ lo, hi, x, dual float64 }{
		{2, 5, 1, -2},
		{-5, -2, -1, 2},
		{-1, 1, 0, 0},
		{2, inf, 1, -2},
		{-inf, -2, -1, 2},
		{-inf, inf, 0, 0},
	} {
		p := NewProblem(2)
		for i := 0; i < 2; i++ {
			_ = p.SetQuadCoeff(i, i, 2)
		}
		_, _ = p.AddInequality([]float64{1, 1}, 0)
		if err := p.SetRowBounds(0, tc.lo, tc.hi); err != nil {
			t.Fatal(err)
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("[%g, %g]: %v", tc.lo, tc.hi, err)
		}
		if math.Abs(sol.X[0]-tc.x) > 1e-9 || math.Abs(sol.X[1]-tc.x) > 1e-9 || math.Abs(sol.IneqDual[0]-tc.dual) > 1e-9 {
			t.Errorf("[%g, %g]: x = %v, dual %g; want x = %g, dual %g", tc.lo, tc.hi, sol.X, sol.IneqDual[0], tc.x, tc.dual)
		}
	}
}
