package lp

import (
	"math"
	"math/rand"
	"testing"
)

// allocLP builds a mid-size feasible LP: min Σx s.t. a random band of GE
// rows, x ≥ 0. Big enough that the sparse engine does real pivoting work,
// small enough to keep AllocsPerRun cheap.
func allocLP(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	const n, m = 24, 16
	p := NewProblem(n)
	c := make([]float64, n)
	for j := range c {
		c[j] = 1 + rng.Float64()
		if err := p.SetBounds(j, 0, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetObjective(c, false); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := range row {
			row[j] = 0
		}
		for k := 0; k < 5; k++ {
			row[(i*3+k*5)%n] = 1 + rng.Float64()
		}
		if _, err := p.AddConstraint(row, GE, 1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestFTRANBTRANZeroAlloc pins the engine's FTRAN/BTRAN applications at zero
// allocations on both kernels once a workspace-backed engine exists: the LU
// triangular solves and the eta-file sweep all run in place on the caller's
// vector or in engine-owned scratch.
func TestFTRANBTRANZeroAlloc(t *testing.T) {
	p := allocLP(t)
	for _, kn := range kernels {
		ws := NewWorkspace()
		sol, err := SolveWith(p, withKernel(Options{Workspace: ws}, kn.k))
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s seed solve: %v (status %v)", kn.name, err, sol.Status)
		}
		e := ws.eng
		if e == nil {
			t.Fatalf("%s: workspace retained no engine after a solve", kn.name)
		}
		v := make([]float64, e.m)
		for i := range v {
			v[i] = float64(i%7) - 3
		}
		allocs := testing.AllocsPerRun(50, func() {
			e.ftranVec(v)
			e.btranVec(v)
		})
		if allocs != 0 {
			t.Fatalf("%s FTRAN+BTRAN allocate %.1f objects per application, want 0", kn.name, allocs)
		}
	}
}

// TestWarmResolveZeroAlloc pins the steady-state branch-and-bound node shape
// — re-solving a problem from a captured basis through a checked-out
// workspace, to an optimum or to a certified infeasibility — at zero
// allocations on both kernels. CaptureBasis is off in the measured loop
// (capturing hands the caller a fresh Basis by contract), matching how the
// MILP engine solves non-root nodes.
func TestWarmResolveZeroAlloc(t *testing.T) {
	p := allocLP(t)
	for _, kn := range kernels {
		ws := NewWorkspace()
		sol, err := SolveWith(p, withKernel(Options{CaptureBasis: true, Workspace: ws}, kn.k))
		if err != nil || sol.Status != Optimal || sol.Basis == nil {
			t.Fatalf("%s seed solve: %v (status %v)", kn.name, err, sol.Status)
		}
		cold := sol.Objective
		warm := withKernel(Options{WarmBasis: sol.Basis, Workspace: ws}, kn.k)
		// Warm-up passes grow every workspace buffer to its steady-state
		// size. The first re-solve starts from the engine the cold solve
		// retained and reproduces the cold objective bit for bit; later
		// ones start from the re-solve's own final state and may differ
		// from it in the last bits, but every steady-state re-solve must
		// reproduce the last warm-up bit for bit. (The seed's Solution is
		// the workspace's own and is overwritten by each re-solve, so the
		// cold objective is kept by value.)
		var obj float64
		for i := 0; i < 3; i++ {
			s, err := SolveWith(p, warm)
			if err != nil || s.Status != Optimal || !objClose(s.Objective, cold) {
				t.Fatalf("%s warm-up re-solve: %v (%+v), cold objective %v", kn.name, err, s, cold)
			}
			if i == 0 && s.Objective != cold {
				t.Fatalf("%s first warm objective %v, want the cold %v", kn.name, s.Objective, cold)
			}
			obj = s.Objective
		}
		allocs := testing.AllocsPerRun(20, func() {
			s, err := SolveWith(p, warm)
			if err != nil || s.Status != Optimal {
				t.Fatalf("%s warm re-solve: %v (status %v)", kn.name, err, s.Status)
			}
			if s.Objective != obj {
				t.Fatalf("%s warm objective %v, want %v", kn.name, s.Objective, obj)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s warm workspace re-solve allocates %.1f objects per solve, want 0", kn.name, allocs)
		}

		// An infeasible node: the warm verdict, its Farkas check and the
		// returned Solution all live in the workspace.
		ip, ibasis := branchedInfeasible(t, withKernel(Options{}, kn.k))
		iwarm := withKernel(Options{WarmBasis: ibasis, Workspace: ws}, kn.k)
		for i := 0; i < 3; i++ {
			if _, err := SolveWith(ip, iwarm); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(20, func() {
			s, err := SolveWith(ip, iwarm)
			if err != nil || s.Status != Infeasible || !s.Warm {
				t.Fatalf("%s warm infeasible re-solve: %v (status %v, warm %v)", kn.name, err, s.Status, s.Warm)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s warm infeasible re-solve allocates %.1f objects per solve, want 0", kn.name, allocs)
		}
	}
}
