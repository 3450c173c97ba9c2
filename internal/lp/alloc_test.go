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
// allocations once a workspace-backed engine exists: the LU triangular
// solves and the eta-file sweep all run in place on the caller's vector.
func TestFTRANBTRANZeroAlloc(t *testing.T) {
	p := allocLP(t)
	ws := NewWorkspace()
	sol, err := SolveWith(p, Options{Engine: EngineSparse, Workspace: ws})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("seed solve: %v (status %v)", err, sol.Status)
	}
	e := ws.eng
	if e == nil {
		t.Fatal("workspace retained no engine after a sparse solve")
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
		t.Fatalf("FTRAN+BTRAN allocate %.1f objects per application, want 0", allocs)
	}
}

// TestWarmResolveZeroAlloc pins the steady-state branch-and-bound node shape
// — re-solving a problem from a captured basis through a checked-out
// workspace, to an optimum or to a certified infeasibility — at zero
// allocations. CaptureBasis is off in the measured loop
// (capturing hands the caller a fresh Basis by contract), matching how the
// MILP engine solves non-root nodes.
func TestWarmResolveZeroAlloc(t *testing.T) {
	p := allocLP(t)
	ws := NewWorkspace()
	sol, err := SolveWith(p, Options{Engine: EngineSparse, CaptureBasis: true, Workspace: ws})
	if err != nil || sol.Status != Optimal || sol.Basis == nil {
		t.Fatalf("seed solve: %v (status %v)", err, sol.Status)
	}
	basis := sol.Basis
	warm := Options{Engine: EngineSparse, WarmBasis: basis, Workspace: ws}
	// Warm-up passes grow every workspace buffer to its steady-state size.
	for i := 0; i < 3; i++ {
		if _, err := SolveWith(p, warm); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		s, err := SolveWith(p, warm)
		if err != nil || s.Status != Optimal {
			t.Fatalf("warm re-solve: %v (status %v)", err, s.Status)
		}
		if s.Objective != sol.Objective {
			t.Fatalf("warm objective %v, want %v", s.Objective, sol.Objective)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm workspace re-solve allocates %.1f objects per solve, want 0", allocs)
	}

	// An infeasible node: the warm verdict, its Farkas check and the
	// returned Solution all live in the workspace.
	ip, ibasis := branchedInfeasible(t, Options{Engine: EngineSparse})
	iwarm := Options{Engine: EngineSparse, WarmBasis: ibasis, Workspace: ws}
	for i := 0; i < 3; i++ {
		if _, err := SolveWith(ip, iwarm); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(20, func() {
		s, err := SolveWith(ip, iwarm)
		if err != nil || s.Status != Infeasible || !s.Warm {
			t.Fatalf("warm infeasible re-solve: %v (status %v, warm %v)", err, s.Status, s.Warm)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm infeasible re-solve allocates %.1f objects per solve, want 0", allocs)
	}
}
