package lp

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// kktLP is one real KKT relaxation from testdata/kkt and the variables
// branch and bound branches on in it.
type kktLP struct {
	p     *Problem
	pairs [][2]int // complementarity pairs: at most one side nonzero
	bins  []int    // big-M binaries
}

// readKKT parses the line format internal/core's TestKKTTestdataCurrent
// writes (see writeKKT there).
func readKKT(path string) (*kktLP, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var k kktLP
	num := func(s string) float64 {
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil && err == nil {
			err = perr
		}
		return v
	}
	idx := func(s string) int {
		v, perr := strconv.Atoi(s)
		if perr != nil && err == nil {
			err = perr
		}
		return v
	}
	rels := map[string]Relation{"<=": LE, ">=": GE, "=": EQ}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan() && err == nil; line++ {
		w := strings.Fields(sc.Text())
		if len(w) == 0 || w[0] == "#" {
			continue
		}
		if k.p == nil && w[0] != "vars" {
			return nil, fmt.Errorf("%s:%d: %q before the vars line", path, line, w[0])
		}
		switch {
		case w[0] == "vars" && len(w) == 5:
			k.p = NewProblem(idx(w[1]))
			k.p.SetMaximize(w[4] == "max")
		case w[0] == "c" && len(w) == 3:
			err = k.p.SetObjectiveCoeff(idx(w[1]), num(w[2]))
		case w[0] == "b" && len(w) == 4:
			err = k.p.SetBounds(idx(w[1]), num(w[2]), num(w[3]))
		case w[0] == "r" && len(w) >= 3:
			var ind []int
			var val []float64
			for _, e := range w[3:] {
				j, v, _ := strings.Cut(e, ":")
				ind, val = append(ind, idx(j)), append(val, num(v))
			}
			rel, ok := rels[w[1]]
			if !ok {
				return nil, fmt.Errorf("%s:%d: relation %q", path, line, w[1])
			}
			_, err = k.p.AddSparseConstraint(ind, val, rel, num(w[2]))
		case w[0] == "pair" && len(w) == 3:
			k.pairs = append(k.pairs, [2]int{idx(w[1]), idx(w[2])})
		case w[0] == "bin" && len(w) == 2:
			k.bins = append(k.bins, idx(w[1]))
		default:
			return nil, fmt.Errorf("%s:%d: cannot parse %q", path, line, sc.Text())
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if k.p == nil {
		return nil, fmt.Errorf("%s: no vars line", path)
	}
	return &k, err
}

// branch applies the next branching decision of a dive from the oracle's
// optimum x: the first complementarity pair with both sides positive pins
// its smaller side to zero, or the first fractional binary is fixed to its
// nearer end. It reports false when x already satisfies every pair and
// binary.
func (k *kktLP) branch(x []float64) bool {
	const tol = 1e-6
	for _, pr := range k.pairs {
		a, b := pr[0], pr[1]
		if x[a] > tol && x[b] > tol {
			if x[b] < x[a] {
				a = b
			}
			lo, _ := k.p.Bounds(a)
			_ = k.p.SetBounds(a, lo, 0)
			return true
		}
	}
	for _, j := range k.bins {
		if x[j] > tol && x[j] < 1-tol {
			v := math.Round(x[j])
			_ = k.p.SetBounds(j, v, v)
			return true
		}
	}
	return false
}

// primalResidual returns the largest violation of p's bounds and rows by
// x, each row's relative to 1 + |rhs| + Σ|a_j·x_j|: an optimum the engine
// returns must be a point of p whatever any other solver says.
func primalResidual(p *Problem, x []float64) float64 {
	worst := 0.0
	for j, v := range x {
		lo, hi := p.Bounds(j)
		worst = max(worst, lo-v, v-hi)
	}
	for _, r := range p.rows {
		ax, scale := 0.0, 1+math.Abs(r.rhs)
		for q, j := range r.ind {
			ax += r.val[q] * x[j]
			scale += math.Abs(r.val[q] * x[j])
		}
		d := ax - r.rhs
		switch r.rel {
		case LE:
			d = max(d, 0)
		case GE:
			d = max(-d, 0)
		default:
			d = math.Abs(d)
		}
		worst = max(worst, d/scale)
	}
	return worst
}

// diveKKT solves the relaxation in path on both kernels and checks each
// against reference, a cold solve by another engine: the cold root, then a
// dive of up to six branches (pairs pinned, binaries fixed, as branch and
// bound does, chosen from the reference's optimum) re-solved warm from the
// previous node's basis on the same workspace. Every node must reach the
// reference's status, and its objective to 1e-7 relative; every optimum
// must be a point of the problem (primalResidual ≤ 1e-9); a warm
// Infeasible must leave a certificate row that passes the Farkas check.
// The dive ends early at a node the reference cannot solve. Unpinned,
// Solution.Sparse must report the kernel the size and density rule picks
// (64 rows or more at density 0.3 or less). It returns the number of
// nodes solved on the warm path.
func diveKKT(t *testing.T, path string, reference func(*Problem) (*Solution, error)) int {
	t.Helper()
	k0, err := readKKT(path)
	if err != nil {
		t.Fatal(err)
	}
	wantSparse := k0.p.NumConstraints() >= 64 && k0.p.Density() <= 0.3
	got, err := SolveWith(k0.p, Options{})
	if err != nil {
		t.Fatalf("unpinned solve: %v", err)
	}
	if got.Sparse != wantSparse {
		t.Fatalf("unpinned solve: Sparse = %v, want %v", got.Sparse, wantSparse)
	}
	warmNodes := 0
	for _, kn := range kernels {
		k, err := readKKT(path) // each kernel dives on its own copy
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace()
		var basis *Basis
		for node := 0; node <= 6; node++ {
			ref, rerr := reference(k.p)
			if rerr != nil {
				if node == 0 {
					t.Fatalf("root reference: %v", rerr)
				}
				t.Logf("%s: the dive ends at node %d, where the reference fails: %v", kn.name, node, rerr)
				break
			}
			sol, err := SolveWith(k.p, withKernel(Options{CaptureBasis: true, WarmBasis: basis, Workspace: ws}, kn.k))
			if err != nil {
				t.Fatalf("%s node %d: %v", kn.name, node, err)
			}
			if sol.Status != ref.Status || sol.Sparse != (kn.k == kernelSparse) {
				t.Fatalf("%s node %d: %v (warm path %v, sparse %v), reference %v",
					kn.name, node, sol.Status, sol.Warm, sol.Sparse, ref.Status)
			}
			if sol.Warm {
				warmNodes++
			}
			if sol.Status == Infeasible {
				if sol.Warm && !farkasCertified(k.p, ws.farkasY, make([]float64, k.p.NumVars()+k.p.numSlacks())) {
					t.Fatalf("%s node %d: warm Infeasible without a valid certificate row", kn.name, node)
				}
				break
			}
			if sol.Status != Optimal {
				break
			}
			if !oracleClose(sol.Objective, ref.Objective) {
				t.Fatalf("%s node %d objective %.15g, reference %.15g", kn.name, node, sol.Objective, ref.Objective)
			}
			if r := primalResidual(k.p, sol.X); r > 1e-9 {
				t.Fatalf("%s node %d: optimum violates the problem by %g", kn.name, node, r)
			}
			basis = sol.Basis
			if !k.branch(ref.X) {
				break
			}
		}
	}
	return warmNodes
}

// kktFiles lists the relaxations in testdata/kkt matching pattern.
func kktFiles(t *testing.T, pattern string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata/kkt", pattern))
	if err != nil || len(files) == 0 {
		t.Fatalf("no KKT relaxations %s in testdata/kkt (%v)", pattern, err)
	}
	return files
}

// TestRealKKTAgainstOracle checks both basis kernels against the cold
// tableau oracle (diveKKT) on the systems the attack actually solves by
// default: the root LP relaxations of the complementarity reformulation of
// case9, case30, case57 and case118 at static ratings (testdata/kkt,
// generated from the embedded cases by internal/core's
// TestKKTTestdataCurrent) — free duals, costs of order 1e2 next to
// coefficients of order 1, degenerate complementarity — and dives of
// complementarity branches from them; case118 runs the sparse kernel
// unpinned, the others the dense one.
func TestRealKKTAgainstOracle(t *testing.T) {
	warm := 0
	for _, path := range kktFiles(t, "*-compl-*.lp") {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".lp"), func(t *testing.T) {
			warm += diveKKT(t, path, func(p *Problem) (*Solution, error) { return solveTableau(p, Options{}) })
		})
	}
	if warm == 0 {
		t.Fatal("no dive node was solved on the warm path")
	}
}

// TestRealKKTBigMKernels runs the same dives (diveKKT) on the big-M
// relaxations of case9, case30 and case57, whose λ ≤ M·μ and s ≤ M(1−μ)
// rows put M = 1e5 next to unit coefficients. The tableau is no oracle
// there: pivoting in place without refactorization, it returns optima
// that violate a big-M row by up to 7e4 and calls feasible nodes
// infeasible (case30 and case57, the points the revised engine returns
// instead satisfy every row to 1e-10). So the reference is a cold solve on
// the sparse kernel — the one the rule picks for the case30 and case57
// systems (74 and 87 rows) — and both kernels' warm dives must reach it,
// with every optimum checked against the problem itself.
func TestRealKKTBigMKernels(t *testing.T) {
	warm := 0
	for _, path := range kktFiles(t, "*-bigm-*.lp") {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".lp"), func(t *testing.T) {
			warm += diveKKT(t, path, func(p *Problem) (*Solution, error) {
				return SolveWith(p, withKernel(Options{}, kernelSparse))
			})
		})
	}
	if warm == 0 {
		t.Fatal("no dive node was solved on the warm path")
	}
}
