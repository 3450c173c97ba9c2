package lp

import (
	"math"
	"math/rand"
	"testing"
)

// engineRun is one solve's observable result, copied out of any workspace.
type engineRun struct {
	sol   *Solution
	err   error
	basis *Basis
}

func runEngine(p *Problem, opts Options) engineRun {
	sol, err := SolveWith(p, opts)
	if sol == nil {
		return engineRun{err: err}
	}
	return engineRun{sol: sol.detach(), err: err, basis: sol.Basis}
}

// sameBits reports whether two vectors are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzEngines drives both engines over random anchored LPs (the
// differential-test generator) and checks the workspace contract:
//   - dense and sparse agree on status and objective (1e-6 relative);
//   - within each engine, a solve on a fresh workspace, on a workspace
//     dirtied by a larger unrelated problem, and with no workspace (a
//     borrowed one) give the same X, duals, and pivot count, bit for bit;
//   - warm re-solves from the captured basis, on the workspace that
//     certified it and on a fresh one, certify the same optimum.
//
// The seed corpus lives in testdata/fuzz/FuzzEngines; explore further with
// go test -run '^$' -fuzz FuzzEngines -fuzztime 20s ./internal/lp.
func FuzzEngines(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		p := randomSparseLP(rand.New(rand.NewSource(seed)))
		big := randomSparseLPSized(rand.New(rand.NewSource(^seed)), 60, 40)
		engines := []struct {
			name string
			opts Options
		}{
			{"dense", Options{DenseSolver: true, CaptureBasis: true}},
			{"sparse", Options{ForceSparse: true, CaptureBasis: true}},
		}
		var fresh [2]engineRun
		for k, eng := range engines {
			opts := eng.opts
			ws := NewWorkspace()
			opts.Workspace = ws
			fresh[k] = runEngine(p, opts)

			dirty := NewWorkspace()
			opts.Workspace = dirty
			_, _ = SolveWith(big, opts) // any outcome leaves the workspace dirty
			dirtied := runEngine(p, opts)

			opts.Workspace = nil
			borrowed := runEngine(p, opts)

			for label, got := range map[string]engineRun{"dirtied": dirtied, "borrowed": borrowed} {
				want := fresh[k]
				if (got.err == nil) != (want.err == nil) {
					t.Fatalf("%s %s: err %v, fresh err %v", eng.name, label, got.err, want.err)
				}
				if want.err != nil {
					continue
				}
				g, w := got.sol, want.sol
				if g.Status != w.Status || g.Iterations != w.Iterations ||
					math.Float64bits(g.Objective) != math.Float64bits(w.Objective) ||
					!sameBits(g.X, w.X) || !sameBits(g.Dual, w.Dual) || !sameBits(g.ReducedCost, w.ReducedCost) {
					t.Fatalf("%s %s solve differs from the fresh-workspace solve:\n got  %+v\n want %+v", eng.name, label, g, w)
				}
			}

			if fresh[k].err != nil || fresh[k].sol.Status != Optimal {
				continue
			}
			for label, wws := range map[string]*Workspace{"certified": ws, "fresh": NewWorkspace()} {
				warm := eng.opts
				warm.WarmBasis, warm.Workspace = fresh[k].basis, wws
				r := runEngine(p, warm)
				if r.err != nil || r.sol.Status != Optimal || !objClose(r.sol.Objective, fresh[k].sol.Objective) {
					t.Fatalf("%s warm re-solve on %s workspace: %+v, %v; cold objective %v",
						eng.name, label, r.sol, r.err, fresh[k].sol.Objective)
				}
			}
		}
		d, s := fresh[0], fresh[1]
		if (d.err == nil) != (s.err == nil) {
			t.Fatalf("dense err %v vs sparse err %v", d.err, s.err)
		}
		if d.err != nil {
			return
		}
		if d.sol.Status != s.sol.Status {
			t.Fatalf("dense status %v vs sparse status %v", d.sol.Status, s.sol.Status)
		}
		if d.sol.Status == Optimal && !objClose(d.sol.Objective, s.sol.Objective) {
			t.Fatalf("objective dense %.15g vs sparse %.15g", d.sol.Objective, s.sol.Objective)
		}
	})
}
