package lp

import (
	"math"
	"slices"
	"testing"

	"github.com/edsec/edattack/internal/telemetry"
)

// branchedInfeasible returns a two-variable LP, an optimal basis of it, and
// the LP again after a branch-and-bound style bound change that makes it
// infeasible:
//
//	min x1  s.t.  x1 − x2 = 0,  −x1 − x2 ≥ −2,  x1, x2 ∈ [0, 10]
//
// then x1 ≥ 2, which forces x1 + x2 ≥ 4. The certificates of that are the
// nonzero multiples of y = (−1, 1): g = yᵀ[A | S] = (−2, 0 | −1), so gᵀx
// ranges over (−∞, −4] while yᵀb = −2. (gᵀx = yᵀb is an equation, so −y
// certifies just as well.) Both engines flip the second row's sign at setup
// (its residual at the lower bounds is negative), so the test also covers
// mapping the certificate back to the problem's own row signs.
func branchedInfeasible(t *testing.T, opts Options) (*Problem, *Basis) {
	t.Helper()
	p := NewProblem(2)
	for j := 0; j < 2; j++ {
		if err := p.SetBounds(j, 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetObjective([]float64{1, 0}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddConstraint([]float64{1, -1}, EQ, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddConstraint([]float64{-1, -1}, GE, -2); err != nil {
		t.Fatal(err)
	}
	opts.CaptureBasis = true
	sol, err := SolveWith(p, opts)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("root solve: %v, %v", sol, err)
	}
	if err := p.SetBounds(0, 2, 10); err != nil {
		t.Fatal(err)
	}
	return p, sol.Basis
}

func TestFarkasCertifiedByHand(t *testing.T) {
	p, _ := branchedInfeasible(t, Options{Engine: EngineDense})
	g := make([]float64, 3)
	for _, c := range []struct {
		y    []float64
		want bool
	}{
		{[]float64{-1, 1}, true},
		{[]float64{3, -3}, true},  // any nonzero multiple
		{[]float64{1, 1}, false},  // one sign flipped
		{[]float64{-2, 1}, false}, // one entry scaled
		{[]float64{-1, 0}, false}, // one row dropped
		{[]float64{0, 0}, false},
	} {
		if got := farkasCertified(p, c.y, g); got != c.want {
			t.Errorf("y = %v: certified %v, want %v", c.y, got, c.want)
		}
	}
	// The margin: with x1 ≥ lo the range of gᵀx ends at −2·lo, so y proves
	// infeasibility by 2·lo − 2. At lo = 1 the problem is feasible
	// (x1 = x2 = 1); a gap far below the margin proves nothing either way.
	for _, c := range []struct {
		lo   float64
		want bool
	}{{1, false}, {1 + 1e-12, false}, {1.001, true}} {
		if err := p.SetBounds(0, c.lo, 10); err != nil {
			t.Fatal(err)
		}
		if got := farkasCertified(p, []float64{-1, 1}, g); got != c.want {
			t.Errorf("x1 ≥ %v: certified %v, want %v", c.lo, got, c.want)
		}
	}
}

// TestFarkasRejectsCorruptedRay runs the warm infeasible verdict on both
// engines three times: as is (certified warm), then with the certificate row
// corrupted before the check — one entry's sign flipped, one entry scaled —
// where the check must reject it and the solve fall back to the cold
// two-phase solver, which still proves Infeasible.
func TestFarkasRejectsCorruptedRay(t *testing.T) {
	defer func() { tamperRay = nil }()
	for _, eng := range []struct {
		name string
		opts Options
	}{
		{"dense", Options{Engine: EngineDense}},
		{"sparse", Options{Engine: EngineSparse}},
	} {
		for _, c := range []struct {
			name    string
			tamper  func(y []float64)
			warm    bool
			counter string
		}{
			{"intact", nil, true, "lp_farkas_certified_total"},
			{"sign-flipped", func(y []float64) { y[0] = -y[0] }, false, "lp_farkas_rejected_total"},
			{"scaled", func(y []float64) { y[0] *= 2 }, false, "lp_farkas_rejected_total"},
		} {
			p, basis := branchedInfeasible(t, eng.opts)
			var seen []float64
			tamperRay = func(y []float64) {
				if c.tamper != nil {
					c.tamper(y)
				}
				seen = slices.Clone(y)
			}
			reg := telemetry.NewRegistry()
			opts := eng.opts
			opts.WarmBasis, opts.Metrics = basis, reg
			sol, err := SolveWith(p, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", eng.name, c.name, err)
			}
			if sol.Status != Infeasible || sol.Warm != c.warm {
				t.Fatalf("%s %s: status %v warm %v, want infeasible warm %v",
					eng.name, c.name, sol.Status, sol.Warm, c.warm)
			}
			if seen == nil {
				t.Fatalf("%s %s: the warm path never reached the Farkas check", eng.name, c.name)
			}
			if got := reg.Counter(c.counter).Value(); got != 1 {
				t.Errorf("%s %s: %s = %d, want 1", eng.name, c.name, c.counter, got)
			}
			if c.tamper == nil {
				// The engine's row must be the unique certificate direction.
				if seen[0] == 0 || math.Abs(seen[0]+seen[1]) > 1e-12*math.Abs(seen[0]) {
					t.Errorf("%s: certificate row %v is not a multiple of (−1, 1)", eng.name, seen)
				}
			} else if reg.Counter("lp_warm_fallbacks_total").Value() != 1 {
				t.Errorf("%s %s: rejected certificate did not count a warm fallback", eng.name, c.name)
			}
		}
	}
}
