package qp

import (
	"errors"
	"testing"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.maxIter != 2000 || o.tol != 1e-8 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{maxIter: 3, tol: 1e-5}.withDefaults()
	if o.maxIter != 3 || o.tol != 1e-5 {
		t.Fatalf("overrides lost: %+v", o)
	}
}

func TestIterLimitSurfaces(t *testing.T) {
	// With a one-iteration budget on a problem that needs several
	// iterations, each method must report ErrIterLimit. The problems differ
	// because the methods start from different points: the primal method
	// from an LP vertex, the dual method from the unconstrained minimizer.
	// For the dual one, (2, 1, 0.5) breaks x₀ ≤ 1 and the sum row, and
	// activating the sum row alone gives (4/3, 1/3, −1/6), which still
	// breaks x₀ ≤ 1 and x₂ ≥ 0.
	for _, tc := range []struct {
		primal bool
		lin    []float64
	}{
		{primal: true, lin: []float64{-4, -4, -4}},
		{primal: false, lin: []float64{-4, -2, -1}},
	} {
		p := NewProblem(3)
		for i, c := range tc.lin {
			_ = p.SetQuadCoeff(i, i, 2)
			_ = p.SetLinCoeff(i, c)
			_ = p.SetBounds(i, 0, 1)
		}
		_, _ = p.AddInequality([]float64{1, 1, 1}, 1.5)
		var sol Solution
		err := solve(p, Options{maxIter: 1}, tc.primal, &sol)
		if err == nil {
			t.Fatalf("primal=%v: solved within the budget (%d iterations reported); want ErrIterLimit", tc.primal, sol.Iterations)
		}
		if !errors.Is(err, ErrIterLimit) {
			t.Fatalf("primal=%v: want ErrIterLimit, got %v", tc.primal, err)
		}
		if err := solve(p, Options{}, tc.primal, &sol); err != nil {
			t.Fatalf("primal=%v: default budget: %v", tc.primal, err)
		}
	}
}
