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

// sameRun reports whether two solves returned the same status, pivot
// count, objective, X, duals and reduced costs, bit for bit.
func sameRun(g, w *Solution) bool {
	return g.Status == w.Status && g.Iterations == w.Iterations &&
		math.Float64bits(g.Objective) == math.Float64bits(w.Objective) &&
		sameBits(g.X, w.X) && sameBits(g.Dual, w.Dual) && sameBits(g.ReducedCost, w.ReducedCost)
}

// oracleClose compares an engine objective with the tableau oracle's to
// 1e-7 relative.
func oracleClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7*max(1, math.Abs(a), math.Abs(b))
}

// fuzzLP draws the fuzz input's LP. shape 0 is the differential-test
// generator (8–27 sparse rows). Any other shape draws m = 56 + shape&15
// rows over 40 boxed variables with 9 + shape>>4&7 nonzeros each, a
// density of 0.225–0.4, straddling the kernel cutover (64 rows at density
// ≤ 0.3): the seed corpus pins m = 63 and 64 at density 0.3 and m = 64 at
// 0.325.
func fuzzLP(seed int64, shape uint8) *Problem {
	r := rand.New(rand.NewSource(seed))
	if shape == 0 {
		return randomSparseLP(r)
	}
	return randomLPShaped(r, 40, 56+int(shape&15), 9+int(shape>>4&7))
}

// FuzzEngines drives the revised simplex on both basis kernels over random
// anchored LPs and checks each against the cold tableau oracle
// (tableau_test.go) and the workspace contract:
//   - each kernel agrees with the oracle on error, status and objective
//     (1e-7 relative);
//   - the kernel the size and density rule picks gives, unpinned, the same
//     solve bit for bit, and reports it in Solution.Sparse;
//   - within each kernel, a solve on a fresh workspace, on a workspace
//     dirtied by a larger unrelated problem, and with no workspace (a
//     borrowed one) give the same X, duals, and pivot count, bit for bit;
//   - warm re-solves from the captured basis, on the workspace that
//     certified it and on a fresh one, certify the same optimum;
//   - after random bound tightenings of the kind branching makes, a warm
//     re-solve from the captured basis reaches the oracle's verdict,
//     Infeasible included, with the same optimal objective as a cold
//     solve, and every warm Infeasible leaves a certificate row in the
//     workspace that passes the Farkas check on the branched problem.
//
// The seed corpus lives in testdata/fuzz/FuzzEngines; explore further with
// go test -run '^$' -fuzz FuzzEngines -fuzztime 20s ./internal/lp.
func FuzzEngines(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		p := fuzzLP(seed, shape)
		big := randomSparseLPSized(rand.New(rand.NewSource(^seed)), 60, 40)
		oracle, oerr := solveTableau(p, Options{})
		var fresh [2]engineRun
		var certified [2]*Workspace
		for k, kn := range kernels {
			opts := withKernel(Options{CaptureBasis: true}, kn.k)
			ws := NewWorkspace()
			certified[k] = ws
			opts.Workspace = ws
			fresh[k] = runEngine(p, opts)
			want := fresh[k]

			if (want.err == nil) != (oerr == nil) {
				t.Fatalf("%s: err %v, oracle err %v", kn.name, want.err, oerr)
			}
			if want.err == nil {
				if want.sol.Status != oracle.Status {
					t.Fatalf("%s: status %v, oracle %v", kn.name, want.sol.Status, oracle.Status)
				}
				if want.sol.Status == Optimal && !oracleClose(want.sol.Objective, oracle.Objective) {
					t.Fatalf("%s: objective %.15g, oracle %.15g", kn.name, want.sol.Objective, oracle.Objective)
				}
				if want.sol.Sparse != (kn.k == kernelSparse) {
					t.Fatalf("%s: Solution.Sparse = %v", kn.name, want.sol.Sparse)
				}
			}

			dirty := NewWorkspace()
			opts.Workspace = dirty
			_, _ = SolveWith(big, opts) // any outcome leaves the workspace dirty
			dirtied := runEngine(p, opts)

			opts.Workspace = nil
			borrowed := runEngine(p, opts)

			runs := map[string]engineRun{"dirtied": dirtied, "borrowed": borrowed}
			if useSparseKernel(p, Options{}) == (kn.k == kernelSparse) {
				runs["unpinned"] = runEngine(p, Options{CaptureBasis: true})
			}
			for label, got := range runs {
				if (got.err == nil) != (want.err == nil) {
					t.Fatalf("%s %s: err %v, fresh err %v", kn.name, label, got.err, want.err)
				}
				if want.err == nil && (!sameRun(got.sol, want.sol) || got.sol.Sparse != want.sol.Sparse) {
					t.Fatalf("%s %s solve differs from the fresh-workspace solve:\n got  %+v\n want %+v", kn.name, label, got.sol, want.sol)
				}
			}

			if want.err != nil || want.sol.Status != Optimal {
				continue
			}
			for label, wws := range map[string]*Workspace{"certified": ws, "fresh": NewWorkspace()} {
				warm := withKernel(Options{CaptureBasis: true, WarmBasis: want.basis, Workspace: wws}, kn.k)
				r := runEngine(p, warm)
				if r.err != nil || r.sol.Status != Optimal || !objClose(r.sol.Objective, want.sol.Objective) {
					t.Fatalf("%s warm re-solve on %s workspace: %+v, %v; cold objective %v",
						kn.name, label, r.sol, r.err, want.sol.Objective)
				}
			}
		}
		if oerr != nil || oracle.Status != Optimal {
			return
		}

		// Branching leg: tighten random bounds as branch and bound does, then
		// warm re-solve from each kernel's captured basis on the workspace
		// that certified it (the node-to-node fast path).
		r := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
		for k := 1 + r.Intn(3); k > 0; k-- {
			tighten(p, r, r.Intn(p.NumVars()))
		}
		branched, berr := solveTableau(p, Options{})
		for k, kn := range kernels {
			cold := runEngine(p, withKernel(Options{}, kn.k))
			ws := certified[k]
			warm := runEngine(p, withKernel(Options{CaptureBasis: true, WarmBasis: fresh[k].basis, Workspace: ws}, kn.k))
			if (cold.err == nil) != (warm.err == nil) || (cold.err == nil) != (berr == nil) {
				t.Fatalf("%s branched: cold err %v, warm err %v, oracle err %v", kn.name, cold.err, warm.err, berr)
			}
			if cold.err != nil {
				continue
			}
			if warm.sol.Status != cold.sol.Status || cold.sol.Status != branched.Status {
				t.Fatalf("%s branched: warm %v (warm path %v), cold %v, oracle %v",
					kn.name, warm.sol.Status, warm.sol.Warm, cold.sol.Status, branched.Status)
			}
			if cold.sol.Status == Optimal && (!objClose(warm.sol.Objective, cold.sol.Objective) ||
				!oracleClose(cold.sol.Objective, branched.Objective)) {
				t.Fatalf("%s branched: warm objective %.15g, cold %.15g, oracle %.15g",
					kn.name, warm.sol.Objective, cold.sol.Objective, branched.Objective)
			}
			if warm.sol.Status == Infeasible && warm.sol.Warm &&
				!farkasCertified(p, ws.farkasY, make([]float64, p.NumVars()+p.numSlacks())) {
				t.Fatalf("%s branched: warm Infeasible without a valid certificate row %v", kn.name, ws.farkasY)
			}
		}
	})
}
