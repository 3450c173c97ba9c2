package core_test

import (
	"testing"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/gatetest"
	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/telemetry"
)

// sparseGateOpts mirrors warmGateOpts' budgets but leaves engine selection
// to the default heuristic: the case118 KKT relaxations (~180 rows) land on
// the sparse revised simplex, while the tiny case9/30/57 systems (≲40 rows)
// stay on the dense tableau, which is faster at that size. The dive is off
// to keep the A/B on the engines' KKT searches (the dive/polish layer would add
// identical dispatch work to both sides and swamp the wall comparison). Run
// via make bench-sparse (part of make check).
func sparseGateOpts() core.Options {
	return core.WithoutDive(core.Options{MaxNodes: 40, RelGap: 1e-3})
}

// TestSparseGateIdenticalAttacks is the sparse-engine correctness gate on
// case9/case30/case57: the budgeted attack must be bit-identical — target,
// direction, gain, and every manipulated rating — whether the KKT systems
// are solved by the sparse revised simplex or the dense tableau oracle, and
// the sparse engine must preserve worker-count independence (one worker vs
// four). These cases route dense under the default heuristic, so the sparse
// side is pinned to the sparse engine to keep the comparison a real A/B.
func TestSparseGateIdenticalAttacks(t *testing.T) {
	for _, name := range []string{"case9", "case30", "case57"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k := caseKnowledge(t, name)
			solve := func(dense bool, workers int) *core.Attack {
				eng := lp.EngineSparse
				if dense {
					eng = lp.EngineDense
				}
				o := core.WithLPEngine(sparseGateOpts(), eng)
				o.Workers = workers
				att, err := core.FindOptimalAttack(k, o)
				if err != nil {
					t.Fatalf("dense=%v workers=%d: %v", dense, workers, err)
				}
				return att
			}
			sparse1 := solve(false, 1)
			sparse4 := solve(false, 4)
			dense1 := solve(true, 1)
			sameAttack(t, name+"/sparse w1-vs-w4", sparse1, sparse4)
			sameAttack(t, name+"/sparse-vs-dense", sparse1, dense1)
		})
	}
}

// TestSparseGateEngineSelection pins which engine the default heuristic
// picks for each case's KKT relaxations, via the lp_sparse_solves_total /
// lp_dense_solves_total counters: the tiny cases must run all-dense (the
// revised simplex's LU refactorization overhead makes it slower below the
// cutover) and case118 must keep every KKT solve on the sparse engine.
func TestSparseGateEngineSelection(t *testing.T) {
	expectSparse := map[string]bool{"case9": false, "case30": false, "case57": false}
	if !testing.Short() {
		expectSparse["case118"] = true
	}
	for name, wantSparse := range expectSparse {
		name, wantSparse := name, wantSparse
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k := caseKnowledge(t, name)
			reg := telemetry.NewRegistry()
			o := sparseGateOpts()
			o.Workers = 1
			o.Metrics = reg
			if _, err := core.FindOptimalAttack(k, o); err != nil {
				t.Fatal(err)
			}
			sparse := reg.Counter("lp_sparse_solves_total").Value()
			dense := reg.Counter("lp_dense_solves_total").Value()
			if sparse+dense == 0 {
				t.Fatal("no LP engine counters recorded")
			}
			if wantSparse && sparse == 0 {
				t.Errorf("%s: expected the KKT relaxations on the sparse engine, got %d dense / 0 sparse", name, dense)
			}
			if !wantSparse && sparse > 0 {
				t.Errorf("%s: %d KKT solves routed to the sparse engine below the cutover (want all %d dense)",
					name, sparse, sparse+dense)
			}
			t.Logf("%s: %d sparse / %d dense LP solves", name, sparse, dense)
		})
	}
}

// TestSparseGateCase118 is the sparse-engine performance gate. The budgeted
// case118 attack on the default (sparse) engine must:
//
//   - reproduce the dense oracle's gain bit-exactly (the engines may explore
//     different budgeted branch-and-bound trees, but the attack value must
//     not move);
//   - match the recorded sparse iteration count and FTRAN/BTRAN/
//     refactorization work exactly (the deterministic Workers=1 schedule) —
//     so BENCH_solver.json stays honest;
//   - finish, at reference speed (see gatetest.SpeedRef), under the
//     recorded dense sequential wall time, with the recorded speedup itself
//     at least 1.5×.
func TestSparseGateCase118(t *testing.T) {
	if testing.Short() {
		t.Skip("case118 gate skipped in -short mode")
	}
	base, err := loadSolverBaseline()
	if err != nil {
		t.Fatalf("BENCH_solver.json: %v", err)
	}
	rec, ok := base["case118"]
	if !ok {
		t.Fatal("BENCH_solver.json has no case118 record")
	}
	k := caseKnowledge(t, "case118")
	reg := telemetry.NewRegistry()
	o := sparseGateOpts()
	o.Workers = 1
	o.Metrics = reg
	var att *core.Attack
	var wall time.Duration
	speed := gatetest.NewSpeedRef().Around(func() {
		start := time.Now()
		var err error
		att, err = core.FindOptimalAttack(k, o)
		if err != nil {
			t.Fatal(err)
		}
		wall = time.Since(start)
	})
	wallMs := float64(wall.Microseconds()) / 1000
	refMs := wallMs * speed // the live wall at reference speed (see gatetest.SpeedRef)
	if att.Stats == nil {
		t.Fatal("attack carries no SolverStats")
	}
	if att.GainPct != rec.GainPct {
		t.Errorf("sparse gain %.17g differs from recorded dense gain %.17g", att.GainPct, rec.GainPct)
	}
	if att.GainPct != rec.SparseGainPct {
		t.Errorf("gain %.17g differs from recorded sparse gain %.17g", att.GainPct, rec.SparseGainPct)
	}
	if att.Stats.SimplexIterations != rec.SparseSimplexIterations {
		t.Errorf("simplex iterations %d differ from recorded %d — rerun BENCH_SOLVER=1 go test -run TestRecordSolverBaseline ./internal/core",
			att.Stats.SimplexIterations, rec.SparseSimplexIterations)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"lp_ftran_total", rec.FTRANTotal},
		{"lp_btran_total", rec.BTRANTotal},
		{"lp_refactorizations_total", rec.RefactorizationsTotal},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d differs from recorded %d — rerun BENCH_SOLVER=1 go test -run TestRecordSolverBaseline ./internal/core",
				c.name, got, c.want)
		}
	}
	if nnz := int(reg.Gauge("lp_problem_nnz").Value()); nnz != rec.KKTNNZ {
		t.Errorf("largest KKT system nnz %d differs from recorded %d", nnz, rec.KKTNNZ)
	}
	if d := reg.Gauge("lp_problem_density").Value(); d > 0.3 {
		t.Errorf("densest LP solved has density %.3f; the KKT systems are supposed to be sparse", d)
	}
	// Wall-clock sanity: the sparse run, scaled to reference speed by a
	// speed reference timed around it, must at least beat the recorded
	// dense sequential wall outright, so a slow spell of a shared machine
	// does not read as a regression. The ≥1.5× acceptance bar is asserted
	// on the recorded numbers, where both walls come from one recording
	// run on one machine. Skipped under the race detector, whose
	// instrumentation slowdown swamps the engine difference.
	if !gatetest.RaceEnabled && rec.WallMsSequential > 0 && refMs > rec.WallMsSequential {
		t.Errorf("sparse wall %.0fms (%.0fms at reference speed) did not beat the recorded dense sequential wall %.0fms",
			wallMs, refMs, rec.WallMsSequential)
	}
	// 1.5× floor: since the incumbent heuristic moved to the root node the
	// dense baseline no longer pays a per-node true-dispatch solve, so the
	// engines are compared on raw KKT pivoting alone and the honest gap on
	// this machine is ~1.6×.
	if rec.SparseSpeedup < 1.5 {
		t.Errorf("recorded sparse speedup %.2f× < 1.5× over the dense baseline — rerun BENCH_SOLVER=1 go test -run TestRecordSolverBaseline ./internal/core",
			rec.SparseSpeedup)
	}
	t.Logf("case118 budgeted sparse: %d iterations, %d FTRAN, %d BTRAN, %d refactorizations, gain %.6f%%, %.0fms live, %.0fms at reference speed (recorded %.2f× vs dense)",
		att.Stats.SimplexIterations, reg.Counter("lp_ftran_total").Value(), reg.Counter("lp_btran_total").Value(),
		reg.Counter("lp_refactorizations_total").Value(), att.GainPct, wallMs, refMs, rec.SparseSpeedup)
}
