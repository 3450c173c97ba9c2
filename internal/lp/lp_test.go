package lp

import (
	"math"
	"testing"
)

const tol = 1e-7

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestSimpleMin(t *testing.T) {
	// min x + y  s.t. x + y >= 2, x >= 0, y >= 0 → obj 2.
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1, 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(0, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(1, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddConstraint([]float64{1, 1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > tol {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 → x=4, y=0, obj 12.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{3, 2}, true)
	_ = p.SetBounds(0, 0, math.Inf(1))
	_ = p.SetBounds(1, 0, math.Inf(1))
	_, _ = p.AddConstraint([]float64{1, 1}, LE, 4)
	_, _ = p.AddConstraint([]float64{1, 3}, LE, 6)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-12) > tol {
		t.Fatalf("objective = %v, want 12", sol.Objective)
	}
	if math.Abs(sol.X[0]-4) > tol || math.Abs(sol.X[1]) > tol {
		t.Fatalf("x = %v, want [4 0]", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x,y in [0, 8] → x=8, y=2, obj 22.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{2, 3}, false)
	_ = p.SetBounds(0, 0, 8)
	_ = p.SetBounds(1, 0, 8)
	_, _ = p.AddConstraint([]float64{1, 1}, EQ, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-22) > tol {
		t.Fatalf("objective = %v, want 22", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetBounds(0, 0, 1)
	_, _ = p.AddConstraint([]float64{1}, GE, 5)
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleConflictingRows(t *testing.T) {
	p := NewProblem(2)
	_, _ = p.AddConstraint([]float64{1, 1}, EQ, 1)
	_, _ = p.AddConstraint([]float64{1, 1}, EQ, 3)
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetObjective([]float64{1}, true)
	_ = p.SetBounds(0, 0, math.Inf(1))
	_, _ = p.AddConstraint([]float64{-1}, LE, 0) // x >= 0, no upper limit
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x >= -5 via constraint (variable itself unbounded).
	p := NewProblem(1)
	_ = p.SetObjective([]float64{1}, false)
	_, _ = p.AddConstraint([]float64{1}, GE, -5)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]+5) > tol {
		t.Fatalf("x = %v, want -5", sol.X[0])
	}
}

func TestNegativeBounds(t *testing.T) {
	// max x + y with x in [-3, -1], y in [-2, 5], x + y <= 1.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1}, true)
	_ = p.SetBounds(0, -3, -1)
	_ = p.SetBounds(1, -2, 5)
	_, _ = p.AddConstraint([]float64{1, 1}, LE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-1) > tol {
		t.Fatalf("objective = %v, want 1", sol.Objective)
	}
}

func TestBoundFlipPath(t *testing.T) {
	// Degenerate little problem that exercises bound flips: maximize x
	// with x in [0, 1] and a constraint that never binds.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 0}, true)
	_ = p.SetBounds(0, 0, 1)
	_ = p.SetBounds(1, 0, 10)
	_, _ = p.AddConstraint([]float64{1, 1}, LE, 100)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-1) > tol {
		t.Fatalf("x = %v, want 1", sol.X[0])
	}
}

func TestDegenerateKleeMintyLike(t *testing.T) {
	// A small Klee–Minty-style problem; checks termination and optimum.
	n := 6
	p := NewProblem(n)
	c := make([]float64, n)
	for j := 0; j < n; j++ {
		c[j] = math.Pow(2, float64(n-1-j))
		_ = p.SetBounds(j, 0, math.Inf(1))
	}
	_ = p.SetObjective(c, true)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := 0; j < i; j++ {
			row[j] = math.Pow(2, float64(i-j+1))
		}
		row[i] = 1
		_, _ = p.AddConstraint(row, LE, math.Pow(5, float64(i+1)))
	}
	sol := solveOK(t, p)
	want := math.Pow(5, float64(n))
	if math.Abs(sol.Objective-want) > 1e-6*want {
		t.Fatalf("objective = %v, want %v", sol.Objective, want)
	}
}

func TestDualValues(t *testing.T) {
	// min 12x + 16y s.t. x + 2y >= 40, x + y >= 30, x,y >= 0.
	// Optimum x=20, y=10, obj 400; duals y1=4, y2=8.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{12, 16}, false)
	_ = p.SetBounds(0, 0, math.Inf(1))
	_ = p.SetBounds(1, 0, math.Inf(1))
	_, _ = p.AddConstraint([]float64{1, 2}, GE, 40)
	_, _ = p.AddConstraint([]float64{1, 1}, GE, 30)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-400) > tol {
		t.Fatalf("objective = %v, want 400", sol.Objective)
	}
	if math.Abs(sol.Dual[0]-4) > tol || math.Abs(sol.Dual[1]-8) > tol {
		t.Fatalf("duals = %v, want [4 8]", sol.Dual)
	}
}

func TestComplementarySlackness(t *testing.T) {
	p := NewProblem(2)
	_ = p.SetObjective([]float64{3, 2}, true)
	_ = p.SetBounds(0, 0, math.Inf(1))
	_ = p.SetBounds(1, 0, math.Inf(1))
	_, _ = p.AddConstraint([]float64{1, 1}, LE, 4)
	_, _ = p.AddConstraint([]float64{1, 3}, LE, 100) // slack at optimum
	sol := solveOK(t, p)
	act := sol.X[0] + 3*sol.X[1]
	if act > 100-1 && math.Abs(sol.Dual[1]) > tol {
		t.Fatalf("expected slack row, activity %v", act)
	}
	if math.Abs(sol.Dual[1]) > tol {
		t.Fatalf("dual of slack constraint = %v, want 0", sol.Dual[1])
	}
}

func TestSparseConstraint(t *testing.T) {
	p := NewProblem(5)
	_ = p.SetObjective([]float64{1, 0, 0, 0, 1}, false)
	for j := 0; j < 5; j++ {
		_ = p.SetBounds(j, 0, math.Inf(1))
	}
	if _, err := p.AddSparseConstraint([]int{0, 4}, []float64{1, 1}, GE, 3); err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-3) > tol {
		t.Fatalf("objective = %v, want 3", sol.Objective)
	}
}

func TestSparseConstraintErrors(t *testing.T) {
	p := NewProblem(2)
	if _, err := p.AddSparseConstraint([]int{0}, []float64{1, 2}, LE, 1); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := p.AddSparseConstraint([]int{5}, []float64{1}, LE, 1); err == nil {
		t.Fatal("want index range error")
	}
}

func TestAPIErrors(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1}, false); err == nil {
		t.Fatal("want objective length error")
	}
	if err := p.SetObjectiveCoeff(7, 1); err == nil {
		t.Fatal("want objective index error")
	}
	if err := p.SetBounds(0, 3, 1); err == nil {
		t.Fatal("want inverted bounds error")
	}
	if err := p.SetBounds(9, 0, 1); err == nil {
		t.Fatal("want bound index error")
	}
	if _, err := p.AddConstraint([]float64{1}, LE, 0); err == nil {
		t.Fatal("want constraint length error")
	}
	if _, err := p.AddConstraint([]float64{1, 2}, Relation(9), 0); err == nil {
		t.Fatal("want relation error")
	}
}

func TestStrings(t *testing.T) {
	for _, r := range []Relation{LE, GE, EQ, Relation(42)} {
		if r.String() == "" {
			t.Fatal("empty Relation string")
		}
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded, Status(42)} {
		if s.String() == "" {
			t.Fatal("empty Status string")
		}
	}
}

func TestFixedVariable(t *testing.T) {
	// A variable fixed by equal bounds must keep its value.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1}, false)
	_ = p.SetBounds(0, 5, 5)
	_ = p.SetBounds(1, 0, math.Inf(1))
	_, _ = p.AddConstraint([]float64{1, 1}, GE, 7)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-5) > tol || math.Abs(sol.X[1]-2) > tol {
		t.Fatalf("x = %v, want [5 2]", sol.X)
	}
}

func TestNumVarsNumConstraints(t *testing.T) {
	p := NewProblem(3)
	if p.NumVars() != 3 || p.NumConstraints() != 0 {
		t.Fatal("fresh problem dims")
	}
	_, _ = p.AddConstraint([]float64{1, 1, 1}, LE, 1)
	if p.NumConstraints() != 1 {
		t.Fatal("constraint count")
	}
	lo, hi := p.Bounds(0)
	if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Fatal("default bounds")
	}
}

// TestRejectsNonFiniteInput pins input validation: every setter refuses a
// non-finite coefficient, objective entry, or right-hand side, and a NaN or
// inverted-infinite bound, instead of letting the engines report "optimal"
// on a problem they cannot represent. The base problem is
// max x+y s.t. x+2y ≤ 4, 0 ≤ x,y ≤ 10.
func TestRejectsNonFiniteInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(p *Problem) error
	}{
		{"objective NaN", func(p *Problem) error { return p.SetObjective([]float64{1, nan}, true) }},
		{"objective +Inf", func(p *Problem) error { return p.SetObjective([]float64{inf, 1}, true) }},
		{"objective coeff NaN", func(p *Problem) error { return p.SetObjectiveCoeff(0, nan) }},
		{"objective coeff -Inf", func(p *Problem) error { return p.SetObjectiveCoeff(1, -inf) }},
		{"lower NaN", func(p *Problem) error { return p.SetBounds(0, nan, 10) }},
		{"upper NaN", func(p *Problem) error { return p.SetBounds(0, 0, nan) }},
		{"lower +Inf", func(p *Problem) error { return p.SetBounds(0, inf, inf) }},
		{"upper -Inf", func(p *Problem) error { return p.SetBounds(0, -inf, -inf) }},
		{"dense coeff NaN", func(p *Problem) error { _, err := p.AddConstraint([]float64{1, nan}, LE, 4); return err }},
		{"dense coeff Inf", func(p *Problem) error { _, err := p.AddConstraint([]float64{inf, 2}, LE, 4); return err }},
		{"dense rhs NaN", func(p *Problem) error { _, err := p.AddConstraint([]float64{1, 2}, LE, nan); return err }},
		{"dense rhs Inf", func(p *Problem) error { _, err := p.AddConstraint([]float64{1, 2}, GE, -inf); return err }},
		{"sparse coeff NaN", func(p *Problem) error {
			_, err := p.AddSparseConstraint([]int{0, 1}, []float64{1, nan}, LE, 4)
			return err
		}},
		{"sparse rhs NaN", func(p *Problem) error {
			_, err := p.AddSparseConstraint([]int{0, 1}, []float64{1, 2}, EQ, nan)
			return err
		}},
	}
	build := func() *Problem {
		p := NewProblem(2)
		for j := 0; j < 2; j++ {
			if err := p.SetBounds(j, 0, 10); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.SetObjective([]float64{1, 1}, true); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build()
			if err := tc.set(p); err == nil {
				t.Fatal("setter accepted non-finite input")
			}
			// The rejected edit must leave the problem untouched: the
			// valid base problem still solves to its true optimum.
			if _, err := p.AddConstraint([]float64{1, 2}, LE, 4); err != nil {
				t.Fatal(err)
			}
			for _, eng := range []Engine{EngineDense, EngineSparse} {
				sol, err := SolveWith(p, Options{Engine: eng})
				if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-4) > tol {
					t.Fatalf("engine=%v: base problem after rejected edit: %+v, %v", eng, sol, err)
				}
			}
		})
	}
	// Infinite bounds on the open side stay legal.
	if err := NewProblem(1).SetBounds(0, math.Inf(-1), math.Inf(1)); err != nil {
		t.Fatalf("free variable rejected: %v", err)
	}
}
