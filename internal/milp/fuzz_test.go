package milp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/edsec/edattack/internal/lp"
)

// fuzzMILP is one random mixed problem: up to 10 binaries, up to 4
// complementarity pairs on non-negative continuous variables, up to 2 free
// continuous variables, and a few rows. All data are small integers, so
// every relaxation vertex is a rational with a small denominator: a value
// within intTol of an integer (or of zero, for a pair) is exactly there,
// and the search's tolerance cannot accept a point the enumeration rejects.
type fuzzMILP struct {
	base     *lp.Problem
	binaries []int
	pairs    [][2]int
}

func randFuzzMILP(r *rand.Rand) fuzzMILP {
	nb, np, nc := r.Intn(11), r.Intn(5), r.Intn(3)
	if nb+np == 0 {
		nb = 1
	}
	n := nb + 2*np + nc
	base := lp.NewProblem(n)
	var pm fuzzMILP
	pm.base = base
	// x0 is an integral point inside every box that satisfies every
	// binary and pair restriction; rows are built around it, so most
	// instances are feasible and the rest are infeasible by a few units.
	x0 := make([]float64, n)
	for j := 0; j < nb; j++ {
		pm.binaries = append(pm.binaries, j)
		x0[j] = float64(r.Intn(2))
	}
	for i := 0; i < np; i++ {
		a, b := nb+2*i, nb+2*i+1
		_ = base.SetBounds(a, 0, float64(1+r.Intn(5)))
		_ = base.SetBounds(b, 0, float64(1+r.Intn(5)))
		pm.pairs = append(pm.pairs, [2]int{a, b})
		_, hi := base.Bounds(a)
		x0[a] = float64(r.Intn(int(hi) + 1))
	}
	for j := nb + 2*np; j < n; j++ {
		lo := float64(-r.Intn(3))
		hi := lo + float64(1+r.Intn(5))
		_ = base.SetBounds(j, lo, hi)
		x0[j] = lo + float64(r.Intn(int(hi-lo)+1))
	}
	c := make([]float64, n)
	for j := range c {
		c[j] = float64(r.Intn(19) - 9)
	}
	_ = base.SetObjective(c, r.Intn(2) == 0)
	for m := 1 + r.Intn(5); m > 0; m-- {
		var idx []int
		var val []float64
		var ax float64
		for j := 0; j < n; j++ {
			if r.Intn(2) == 0 {
				continue
			}
			v := float64(1 + r.Intn(5))
			if r.Intn(2) == 0 {
				v = -v
			}
			idx, val = append(idx, j), append(val, v)
			ax += v * x0[j]
		}
		if len(idx) == 0 {
			continue
		}
		switch k := r.Intn(20); {
		case k < 12:
			_, _ = base.AddSparseConstraint(idx, val, lp.LE, ax+float64(r.Intn(3)))
		case k < 17:
			_, _ = base.AddSparseConstraint(idx, val, lp.GE, ax-float64(r.Intn(3)))
		case k < 19:
			_, _ = base.AddSparseConstraint(idx, val, lp.EQ, ax)
		default:
			_, _ = base.AddSparseConstraint(idx, val, lp.LE, ax-float64(1+r.Intn(4)))
		}
	}
	return pm
}

// problem wraps the instance for the branch-and-bound search.
func (pm fuzzMILP) problem(t *testing.T) *Problem {
	p := NewProblem(pm.base)
	for _, j := range pm.binaries {
		if err := p.SetBinary(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, pr := range pm.pairs {
		if err := p.AddComplementarityPair(pr[0], pr[1]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// bruteForce enumerates every binary assignment and every choice of the
// zeroed side of each pair, cold-solving the LP left over for the other
// variables. It returns whether any leaf is feasible and the best leaf
// objective. No search, pruning or warm start is involved.
func (pm fuzzMILP) bruteForce(t *testing.T) (bool, float64) {
	nb, np := len(pm.binaries), len(pm.pairs)
	maximize := pm.base.IsMaximize()
	found, best := false, 0.0
	for mask := 0; mask < 1<<(nb+np); mask++ {
		for i, j := range pm.binaries {
			v := float64(mask >> i & 1)
			_ = pm.base.SetBounds(j, v, v)
		}
		saved := make([][2]float64, np)
		for i, pr := range pm.pairs {
			zero := pr[mask>>(nb+i)&1]
			lo, hi := pm.base.Bounds(zero)
			saved[i] = [2]float64{lo, hi}
			_ = pm.base.SetBounds(zero, 0, 0)
		}
		sol, err := lp.Solve(pm.base)
		for i, pr := range pm.pairs {
			_ = pm.base.SetBounds(pr[mask>>(nb+i)&1], saved[i][0], saved[i][1])
		}
		if err != nil {
			t.Fatalf("leaf %b: %v", mask, err)
		}
		if sol.Status != lp.Optimal {
			continue
		}
		if !found || maximize && sol.Objective > best || !maximize && sol.Objective < best {
			found, best = true, sol.Objective
		}
	}
	for _, j := range pm.binaries {
		_ = pm.base.SetBounds(j, 0, 1)
	}
	return found, best
}

// FuzzMILP is the search's exactness oracle: on random problems with up to
// 10 binaries and 4 complementarity pairs, SolveWith with warm-started and
// with cold-solved node relaxations must agree with brute-force enumeration on the status (optimal or
// infeasible) and, when optimal, on the objective within 1e-7, report that
// objective as its proven bound with zero gap, and return a point that
// satisfies every binary and pair restriction.
//
// The seed corpus lives in testdata/fuzz/FuzzMILP; explore further with
// go test -run '^$' -fuzz FuzzMILP -fuzztime 20s ./internal/milp.
func FuzzMILP(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		pm := randFuzzMILP(rand.New(rand.NewSource(seed)))
		feasible, want := pm.bruteForce(t)
		for _, eng := range []struct {
			name string
			opts Options
		}{
			{"warm", Options{}},
			{"cold", Options{DisableWarmStart: true}},
		} {
			sol, err := SolveWith(pm.problem(t), eng.opts)
			if err != nil {
				t.Fatalf("%s: %v", eng.name, err)
			}
			if !feasible {
				if sol.Status != Infeasible {
					t.Fatalf("%s: status %v objective %v, enumeration finds no feasible leaf", eng.name, sol.Status, sol.Objective)
				}
				continue
			}
			if sol.Status != Optimal {
				t.Fatalf("%s: status %v, enumeration optimum %v", eng.name, sol.Status, want)
			}
			if math.Abs(sol.Objective-want) > 1e-7*(1+math.Abs(want)) {
				t.Fatalf("%s: objective %.12g, enumeration optimum %.12g", eng.name, sol.Objective, want)
			}
			if sol.Gap != 0 || sol.BestBound != sol.Objective {
				t.Fatalf("%s: optimal solve reports bound %v gap %v", eng.name, sol.BestBound, sol.Gap)
			}
			for _, j := range pm.binaries {
				if x := sol.X[j]; math.Abs(x-math.Round(x)) > 1e-6 {
					t.Fatalf("%s: binary %d = %v", eng.name, j, x)
				}
			}
			for _, pr := range pm.pairs {
				if v := math.Min(sol.X[pr[0]], sol.X[pr[1]]); v > 1e-6 {
					t.Fatalf("%s: pair %v both positive (%v, %v)", eng.name, pr, sol.X[pr[0]], sol.X[pr[1]])
				}
			}
		}
	})
}
