package core_test

import (
	"testing"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/telemetry"
)

// TestSparseGateEngineSelection pins which basis kernel the size and
// density rule picks for each case's LPs, via the lp_sparse_solves_total /
// lp_dense_solves_total counters: the tiny cases must run every solve on
// the dense LU (below 64 rows the sparse bookkeeping costs more than it
// saves) and case118 must put its KKT relaxations on the sparse LU. The
// kernels themselves are differentially tested in internal/lp
// (FuzzEngines).
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
			o := gateOpts()
			o.Workers = 1
			o.Metrics = reg
			if _, err := core.FindOptimalAttack(k, o); err != nil {
				t.Fatal(err)
			}
			sparse := reg.Counter("lp_sparse_solves_total").Value()
			dense := reg.Counter("lp_dense_solves_total").Value()
			if solves := reg.Counter("lp_solves_total").Value(); sparse+dense != solves || solves == 0 {
				t.Fatalf("%d dense + %d sparse kernel solves, %d LP solves", dense, sparse, solves)
			}
			if wantSparse && sparse == 0 {
				t.Errorf("%s: expected the KKT relaxations on the sparse kernel, got %d dense / 0 sparse", name, dense)
			}
			if !wantSparse && sparse > 0 {
				t.Errorf("%s: %d LP solves on the sparse kernel below the cutover (want all %d dense)",
					name, sparse, sparse+dense)
			}
			t.Logf("%s: %d sparse / %d dense kernel LP solves", name, sparse, dense)
		})
	}
}

// TestSparseGateCase118 is the sparse-kernel work gate. The budgeted case118
// attack must match the recorded gain, iteration count and FTRAN/BTRAN/
// refactorization work exactly (the deterministic Workers=1 schedule) — so
// BENCH_solver.json stays honest — and its largest LP must be the sparse
// KKT system the record names.
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
	o := gateOpts()
	o.Workers = 1
	o.Metrics = reg
	start := time.Now()
	att, err := core.FindOptimalAttack(k, o)
	if err != nil {
		t.Fatal(err)
	}
	wallMs := float64(time.Since(start).Microseconds()) / 1000
	if att.Stats == nil {
		t.Fatal("attack carries no SolverStats")
	}
	if att.GainPct != rec.GainPct {
		t.Errorf("gain %.17g differs from recorded %.17g", att.GainPct, rec.GainPct)
	}
	if att.Stats.SimplexIterations != rec.SimplexIterations {
		t.Errorf("simplex iterations %d differ from recorded %d — rerun BENCH_SOLVER=1 go test -run TestRecordSolverBaseline ./internal/core",
			att.Stats.SimplexIterations, rec.SimplexIterations)
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
	t.Logf("case118 budgeted: %d iterations, %d FTRAN, %d BTRAN, %d refactorizations, gain %.6f%%, %.0fms",
		att.Stats.SimplexIterations, reg.Counter("lp_ftran_total").Value(), reg.Counter("lp_btran_total").Value(),
		reg.Counter("lp_refactorizations_total").Value(), att.GainPct, wallMs)
}
