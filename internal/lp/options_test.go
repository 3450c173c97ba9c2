package lp

import (
	"errors"
	"math"
	"testing"
)

func TestIterLimit(t *testing.T) {
	// A tiny budget must surface ErrIterLimit rather than wrong answers.
	n := 40
	p := NewProblem(n)
	c := make([]float64, n)
	for j := 0; j < n; j++ {
		c[j] = -1
		_ = p.SetBounds(j, 0, 10)
	}
	_ = p.SetObjective(c, false)
	for i := 0; i < 30; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64((i+j)%5) + 1
		}
		_, _ = p.AddConstraint(row, LE, 50)
	}
	_, err := SolveWith(p, Options{maxIter: 2})
	if !errors.Is(err, ErrIterLimit) {
		t.Fatalf("want ErrIterLimit, got %v", err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.maxIter != 50000 || o.tol != 1e-9 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{maxIter: 7, tol: 1e-6}.withDefaults()
	if o.maxIter != 7 || o.tol != 1e-6 {
		t.Fatalf("overrides lost: %+v", o)
	}
}

func TestInconsistentBoundsAtSolve(t *testing.T) {
	// Bounds can only become inconsistent via internal misuse; construct
	// through the public API and confirm SetBounds guards it instead.
	p := NewProblem(1)
	if err := p.SetBounds(0, 2, 1); err == nil {
		t.Fatal("want bounds error")
	}
	// A valid fixed bound still solves.
	_ = p.SetBounds(0, 3, 3)
	_ = p.SetObjective([]float64{1}, false)
	sol, err := Solve(p)
	if err != nil || sol.Status != Optimal || math.Abs(sol.X[0]-3) > 1e-9 {
		t.Fatalf("fixed-variable solve: %+v %v", sol, err)
	}
}
