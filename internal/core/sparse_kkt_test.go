package core

import (
	"math"
	"testing"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/lp"
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

// TestSparseVsDenseRealKKT is the real-system differential gate: the bilevel
// single-level reformulations (stationarity, complementarity, and big-M rows
// over the inner dispatch KKT conditions) of the benchmark cases are exactly
// the sparse systems the revised simplex was built for. For each case the LP
// relaxation of the first few (target, direction) subproblems must come out
// of both engines with the same status, objectives within 1e-9, and the same
// warm verdict for a shared captured basis.
func TestSparseVsDenseRealKKT(t *testing.T) {
	casesUnderTest := []struct {
		name  string
		build func() (*grid.Network, error)
	}{
		{"case9", cases.Case9},
		{"case30", cases.Case30},
		{"case57", cases.Case57},
		{"case118", cases.Case118},
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
					dense, derr := lp.SolveWith(base, lp.Options{DenseSolver: true, CaptureBasis: true})
					sparse, serr := lp.SolveWith(base, lp.Options{ForceSparse: true, CaptureBasis: true})
					if (derr == nil) != (serr == nil) {
						t.Fatalf("target %d dir %+d: dense err %v vs sparse err %v", target, int(dir), derr, serr)
					}
					if derr != nil {
						continue
					}
					if dense.Status != sparse.Status {
						t.Fatalf("target %d dir %+d: status %v vs %v", target, int(dir), dense.Status, sparse.Status)
					}
					if dense.Status != lp.Optimal {
						continue
					}
					solved++
					if d := math.Abs(dense.Objective - sparse.Objective); d > 1e-9*(1+math.Abs(dense.Objective)) {
						t.Fatalf("target %d dir %+d: objective gap %g (dense %.15g sparse %.15g)",
							target, int(dir), d, dense.Objective, sparse.Objective)
					}
					dw, err := lp.SolveWith(base, lp.Options{DenseSolver: true, WarmBasis: dense.Basis})
					if err != nil {
						t.Fatalf("target %d dir %+d: dense warm: %v", target, int(dir), err)
					}
					sw, err := lp.SolveWith(base, lp.Options{ForceSparse: true, WarmBasis: dense.Basis})
					if err != nil {
						t.Fatalf("target %d dir %+d: sparse warm: %v", target, int(dir), err)
					}
					if dw.Warm != sw.Warm {
						t.Fatalf("target %d dir %+d: warm verdict dense=%v sparse=%v",
							target, int(dir), dw.Warm, sw.Warm)
					}
					if d := math.Abs(dw.Objective - sw.Objective); d > 1e-9*(1+math.Abs(dense.Objective)) {
						t.Fatalf("target %d dir %+d: warm objective gap %g", target, int(dir), d)
					}
					if nnzD := base.Density(); nnzD > 0.3 {
						t.Errorf("target %d dir %+d: KKT relaxation density %.3f — not a sparse system, heuristic would go dense",
							target, int(dir), nnzD)
					}
				}
			}
			if solved == 0 {
				t.Fatal("no subproblem LP reached Optimal; differential never engaged")
			}
			t.Logf("%s: %d KKT relaxations differentially verified", tc.name, solved)
		})
	}
}
