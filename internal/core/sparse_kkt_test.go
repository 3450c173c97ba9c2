package core

import (
	"math"
	"testing"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/telemetry"
)

// kktKnowledge builds attacker knowledge with true ratings at the static
// values for a named benchmark case.
func kktKnowledge(t *testing.T, build func() (*grid.Network, error)) *Knowledge {
	t.Helper()
	n, err := build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	ud := map[int]float64{}
	for _, li := range n.DLRLines() {
		ud[li] = n.Lines[li].RateMVA
	}
	k, err := NewKnowledge(m, ud)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestSparseVsDenseRealKKT pins the basis-kernel routing and the warm path
// on real systems: the bilevel single-level reformulations (stationarity,
// complementarity, and big-M rows over the inner dispatch KKT conditions)
// of the benchmark cases. For the first few (target, direction)
// subproblems of each case, the cold LP relaxation must run on the kernel
// the size and density rule picks — dense on case9/30/57 (under 64 rows),
// sparse on case118 — and say so both in Solution.Sparse and in exactly
// one of lp_dense_solves_total / lp_sparse_solves_total; and a warm
// re-solve from its captured basis must be accepted on the warm path with
// the cold objective within 1e-9. Both kernels are checked against the
// tableau oracle on these same relaxations, written out by
// TestKKTTestdataCurrent, in internal/lp (TestRealKKTAgainstOracle,
// TestRealKKTBigMKernels), and on random LPs (FuzzEngines,
// TestDifferentialSparseVsDense).
func TestSparseVsDenseRealKKT(t *testing.T) {
	casesUnderTest := []struct {
		name   string
		build  func() (*grid.Network, error)
		sparse bool
	}{
		{"case9", cases.Case9, false},
		{"case30", cases.Case30, false},
		{"case57", cases.Case57, false},
		{"case118", cases.Case118, true},
	}
	for _, tc := range casesUnderTest {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			k := kktKnowledge(t, tc.build)
			o := Options{}.withDefaults()
			dlr := k.Model.Net.DLRLines()
			if len(dlr) == 0 {
				t.Fatal("case has no DLR lines")
			}
			// Two targets × both directions bounds runtime on case118 while
			// still exercising distinct KKT right-hand sides and flip
			// patterns.
			targets := dlr
			if len(targets) > 2 {
				targets = targets[:2]
			}
			pre := precompute(k, o)
			solved := 0
			for _, target := range targets {
				for _, dir := range []float64{1, -1} {
					s := newSubproblem(k, target, dir, pre.monitored, o, pre)
					mp, err := s.build()
					if err != nil {
						t.Fatalf("target %d dir %+d: build: %v", target, int(dir), err)
					}
					base := mp.Base
					if d := base.Density(); d > 0.3 {
						t.Errorf("target %d dir %+d: KKT relaxation density %.3f — not a sparse system",
							target, int(dir), d)
					}
					reg := telemetry.NewRegistry()
					cold, err := lp.SolveWith(base, lp.Options{CaptureBasis: true, Metrics: reg})
					if err != nil {
						t.Fatalf("target %d dir %+d: cold solve: %v", target, int(dir), err)
					}
					dense := reg.Counter("lp_dense_solves_total").Value()
					sparse := reg.Counter("lp_sparse_solves_total").Value()
					if cold.Sparse != tc.sparse || sparse != b2i(tc.sparse) || dense != b2i(!tc.sparse) {
						t.Fatalf("target %d dir %+d (%d rows): Sparse=%v with %d dense / %d sparse solves counted, want the sparse kernel %v",
							target, int(dir), base.NumConstraints(), cold.Sparse, dense, sparse, tc.sparse)
					}
					if cold.Status != lp.Optimal {
						continue
					}
					solved++
					warm, err := lp.SolveWith(base, lp.Options{WarmBasis: cold.Basis})
					if err != nil {
						t.Fatalf("target %d dir %+d: warm: %v", target, int(dir), err)
					}
					if !warm.Warm || warm.Status != lp.Optimal {
						t.Fatalf("target %d dir %+d: warm re-solve from the optimal basis: status %v, warm path %v",
							target, int(dir), warm.Status, warm.Warm)
					}
					if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9*(1+math.Abs(cold.Objective)) {
						t.Fatalf("target %d dir %+d: warm objective gap %g", target, int(dir), d)
					}
				}
			}
			if solved == 0 {
				t.Fatal("no subproblem LP reached Optimal; the warm check never engaged")
			}
			t.Logf("%s: %d KKT relaxations verified", tc.name, solved)
		})
	}
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
