package lp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// objClose compares objectives with a relative tolerance; the warm path's
// certification pass ends at a vertex the cold solver would also accept, so
// the two may differ only by accumulated floating-point noise.
func objClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// tighten applies one random bound restriction to variable j, the same move
// branch and bound makes: either fix the variable to one of its bounds or
// shrink the box around a random interior point. Returns false if the box is
// already a point (nothing to tighten).
func tighten(p *Problem, r *rand.Rand, j int) bool {
	lo, hi := p.Bounds(j)
	if hi-lo < 1e-9 {
		return false
	}
	switch r.Intn(3) {
	case 0: // branch down: pin to lower
		_ = p.SetBounds(j, lo, lo)
	case 1: // branch up: pin to upper
		_ = p.SetBounds(j, hi, hi)
	default: // shrink the box
		a := lo + (hi-lo)*r.Float64()
		b := lo + (hi-lo)*r.Float64()
		if a > b {
			a, b = b, a
		}
		_ = p.SetBounds(j, a, b)
	}
	return true
}

// Property (cross-solver validation): after any chain of random bound
// tightenings, the warm-started dual simplex path and a cold two-phase solve
// of the same problem must agree on status, and on the objective whenever the
// problem stays feasible. This is the correctness contract for basis reuse
// across branch-and-bound nodes: results never depend on the warm hint.
func TestWarmMatchesColdAfterTightening(t *testing.T) {
	var resolves, warmHits int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomLP(r)
		ws := NewWorkspace()
		sol, err := SolveWith(p, Options{CaptureBasis: true, Workspace: ws})
		if err != nil || sol.Status != Optimal || sol.Basis == nil {
			return false
		}
		basis := sol.Basis
		rounds := 1 + r.Intn(4)
		for k := 0; k < rounds; k++ {
			if !tighten(p, r, r.Intn(p.NumVars())) {
				continue
			}
			cold, cerr := SolveWith(p, Options{})
			warm, werr := SolveWith(p, Options{WarmBasis: basis, CaptureBasis: true, Workspace: ws})
			if (cerr == nil) != (werr == nil) {
				t.Logf("seed %d round %d: cold err %v, warm err %v", seed, k, cerr, werr)
				return false
			}
			if cerr != nil {
				return true // both hit the iteration cap: nothing to compare
			}
			if cold.Status != warm.Status {
				t.Logf("seed %d round %d: cold %v, warm %v", seed, k, cold.Status, warm.Status)
				return false
			}
			if cold.Status == Optimal {
				resolves++
				if warm.Warm {
					warmHits++
				}
				if !objClose(cold.Objective, warm.Objective) {
					t.Logf("seed %d round %d: cold obj %v, warm obj %v", seed, k, cold.Objective, warm.Objective)
					return false
				}
				if warm.Basis == nil {
					return false
				}
				basis = warm.Basis
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Bound tightenings preserve dual feasibility of the parent basis, so
	// the warm path should carry the bulk of feasible re-solves; a low hit
	// rate means warm starting silently degenerated into cold solving.
	if resolves > 0 && float64(warmHits) < 0.5*float64(resolves) {
		t.Fatalf("warm path certified only %d of %d feasible re-solves", warmHits, resolves)
	}
	t.Logf("warm hit rate: %d/%d feasible re-solves", warmHits, resolves)
}

// Property: a basis captured before AddConstraint, remapped onto the grown
// problem with identity maps (the row-generation situation), either warm
// starts to the same answer as a cold solve or is rejected cleanly by Remap.
func TestWarmRemapAfterAddConstraint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, x0 := randomLP(r)
		ws := NewWorkspace()
		sol, err := SolveWith(p, Options{CaptureBasis: true, Workspace: ws})
		if err != nil || sol.Status != Optimal {
			return false
		}
		n, m := p.NumVars(), p.NumConstraints()
		// Grow the problem by one anchored row, as row generation does.
		row := make([]float64, n)
		for j := range row {
			row[j] = -1 + 2*r.Float64()
		}
		act := Dot(row, x0)
		if _, err := p.AddConstraint(row, LE, act+r.Float64()); err != nil {
			return false
		}
		varMap := make([]int, n)
		rowMap := make([]int, m)
		for j := range varMap {
			varMap[j] = j
		}
		for i := range rowMap {
			rowMap[i] = i
		}
		warmBasis := sol.Basis.Remap(p, p, varMap, rowMap)
		cold, cerr := SolveWith(p, Options{})
		if warmBasis == nil {
			return cerr == nil // rejection is a legal outcome; cold still works
		}
		warm, werr := SolveWith(p, Options{WarmBasis: warmBasis, Workspace: ws})
		if (cerr == nil) != (werr == nil) {
			return false
		}
		if cerr != nil {
			return true
		}
		if cold.Status != warm.Status {
			t.Logf("seed %d: cold %v, warm %v", seed, cold.Status, warm.Status)
			return false
		}
		return cold.Status != Optimal || objClose(cold.Objective, warm.Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Remap must reject maps that are inconsistent with the problems instead of
// producing a corrupt basis.
func TestRemapRejectsBadMaps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p, _ := randomLP(r)
	sol, err := SolveWith(p, Options{CaptureBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("setup solve: %v (%v)", err, sol)
	}
	n, m := p.NumVars(), p.NumConstraints()
	ident := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if got := sol.Basis.Remap(p, p, ident(n-1), ident(m)); got != nil {
		t.Fatal("Remap accepted short varMap")
	}
	if got := sol.Basis.Remap(p, p, ident(n), ident(m-1)); got != nil {
		t.Fatal("Remap accepted short rowMap")
	}
	bad := ident(n)
	bad[0] = n + 100
	if got := sol.Basis.Remap(p, p, bad, ident(m)); got != nil {
		t.Fatal("Remap accepted out-of-range varMap")
	}
	dup := ident(m)
	if m >= 2 {
		dup[1] = dup[0]
		if got := sol.Basis.Remap(p, p, ident(n), dup); got != nil {
			t.Fatal("Remap accepted duplicate rowMap")
		}
	}
	q := NewProblem(n + 1) // different shape: basis does not match `old`
	if got := sol.Basis.Remap(q, p, ident(n+1), nil); got != nil {
		t.Fatal("Remap accepted mismatched old problem")
	}
}

// A Basis is immutable and may seed concurrent solves of identically shaped
// problems — both children of a branch share the parent's snapshot. Run under
// -race in make check.
func TestWarmBasisSharedAcrossGoroutines(t *testing.T) {
	const seed = 42
	build := func() *Problem {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomLP(r)
		return p
	}
	p0 := build()
	sol, err := SolveWith(p0, Options{CaptureBasis: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("setup solve: %v", err)
	}
	basis := sol.Basis
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := build()
			r := rand.New(rand.NewSource(int64(1000 + g)))
			tighten(p, r, r.Intn(p.NumVars()))
			warm, werr := SolveWith(p, Options{WarmBasis: basis})
			cold, cerr := SolveWith(p, Options{})
			if (werr == nil) != (cerr == nil) {
				t.Errorf("goroutine %d: warm err %v, cold err %v", g, werr, cerr)
				return
			}
			if werr == nil && warm.Status != cold.Status {
				t.Errorf("goroutine %d: warm %v, cold %v", g, warm.Status, cold.Status)
			}
		}(g)
	}
	wg.Wait()
}

// The engine a workspace retains after a CaptureBasis solve must be
// invalidated by structural edits: a warm solve after AddConstraint with a
// stale (un-remapped) basis must not be accepted, and the solve must still
// succeed through the cold path.
func TestStaleCacheInvalidatedByAddConstraint(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p, x0 := randomLP(r)
	ws := NewWorkspace()
	sol, err := SolveWith(p, Options{CaptureBasis: true, Workspace: ws})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("setup solve: %v", err)
	}
	row := make([]float64, p.NumVars())
	row[0] = 1
	if _, err := p.AddConstraint(row, LE, x0[0]+1); err != nil {
		t.Fatal(err)
	}
	// The stale basis no longer matches the problem shape: the warm path
	// must reject it (sol2.Warm == false) and fall back cleanly.
	sol2, err := SolveWith(p, Options{WarmBasis: sol.Basis, Workspace: ws})
	if err != nil {
		t.Fatalf("re-solve after AddConstraint: %v", err)
	}
	if sol2.Warm {
		t.Fatal("stale basis accepted after structural edit")
	}
	if sol2.Status != Optimal && sol2.Status != Infeasible {
		t.Fatalf("unexpected status %v", sol2.Status)
	}
}
