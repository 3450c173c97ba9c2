package core_test

import (
	"math/rand"
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// qpWork is the dispatch QP work one cold budgeted attack reports.
type qpWork struct {
	solves, iterations, kktSolves, kktFactors int64
	// dispatches counts the attack's dispatch solves, successful or
	// infeasible.
	dispatches int64
}

// coldAttackQPWork runs a cold budgeted attack (the serving options) on a
// fresh model of the case and returns the attack and its QP work counts.
func coldAttackQPWork(t *testing.T, build func() (*grid.Network, error)) (*core.Attack, qpWork) {
	t.Helper()
	net, err := build()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := dispatch.BuildModel(net)
	if err != nil {
		t.Fatal(err)
	}
	m.Metrics = reg
	rng := rand.New(rand.NewSource(1))
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		l := &net.Lines[li]
		ud[li] = min(max(l.RateMVA*(0.95+0.1*rng.Float64()), l.DLRMin), l.DLRMax)
	}
	k, err := core.NewKnowledge(m, ud)
	if err != nil {
		t.Fatal(err)
	}
	att, err := core.FindOptimalAttack(k, core.Options{MaxNodes: 40, RelGap: 1e-3, Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return att, qpWork{
		solves:     reg.Counter("qp_solves_total").Value(),
		iterations: reg.Counter("qp_iterations_total").Value(),
		kktSolves:  reg.Counter("qp_kkt_solves_total").Value(),
		kktFactors: reg.Counter("qp_kkt_factorizations_total").Value(),
		dispatches: reg.Counter("dispatch_solves_total").Value() + reg.Counter("dispatch_infeasible_total").Value(),
	}
}

// Dispatch QP work ceilings for the cold budgeted case57 attack
// (TestKKTFactorReuseCounted). Measured 352 KKT factorizations and 1,419
// QP iterations (Go 1.24.0, linux/amd64). Without cross-solve reuse of the
// model's base LU and Schur factors the same attack factors 2,263 times,
// and without the hot start from the previous solve's working set it takes
// 2,449 iterations, so each ceiling sits between the two. The budgeted
// case118 attack takes 21,531 QP iterations, 99,655 without the hot start.
const (
	case57KKTFactorsCeiling = 400
	case57QPIterCeiling     = 1800
	case118QPIterCeiling    = 25000
)

// TestKKTFactorReuseCounted pins the dispatch QP's work by its counters. A
// cold budgeted case57 attack reports the same counts on every run, exactly
// one QP solve per dispatch solve (the dual method enforces every rated
// line itself; no row-generation round re-solves it), and at most the
// ceilings above of KKT factorizations and QP iterations. The ceilings are
// totals, not per-QP means: the dive skips the dispatch solves whose
// optimum is provably unchanged, and those were the cheap hot-started
// ones, so the mean per QP says little. Outside -short, the case118 attack
// is held to one QP per dispatch and its own iteration ceiling.
func TestKKTFactorReuseCounted(t *testing.T) {
	first, w := coldAttackQPWork(t, cases.Case57)
	second, w2 := coldAttackQPWork(t, cases.Case57)
	sameAttack(t, "repeat cold attack", first, second)
	if w != w2 {
		t.Fatalf("work counts differ between identical runs: %+v vs %+v", w, w2)
	}
	if w.kktSolves == 0 || w.solves == 0 {
		t.Fatal("no QP or KKT solves counted")
	}
	if w.solves != w.dispatches {
		t.Fatalf("%d QP solves for %d dispatch solves, want one each", w.solves, w.dispatches)
	}
	if w.kktFactors > case57KKTFactorsCeiling {
		t.Fatalf("%d KKT factorizations for %d solves, want at most %d", w.kktFactors, w.kktSolves, case57KKTFactorsCeiling)
	}
	if w.iterations > case57QPIterCeiling {
		t.Fatalf("%d QP iterations for %d QP solves, want at most %d", w.iterations, w.solves, case57QPIterCeiling)
	}
	t.Logf("case57: %d QP solves, %d iterations, %d KKT factorizations for %d KKT solves",
		w.solves, w.iterations, w.kktFactors, w.kktSolves)
	if testing.Short() {
		return
	}
	_, w = coldAttackQPWork(t, cases.Case118)
	if w.solves != w.dispatches {
		t.Fatalf("case118: %d QP solves for %d dispatch solves, want one each", w.solves, w.dispatches)
	}
	if w.iterations > case118QPIterCeiling {
		t.Fatalf("case118: %d QP iterations for %d QP solves, want at most %d", w.iterations, w.solves, case118QPIterCeiling)
	}
	t.Logf("case118: %d QP solves, %d iterations, %.2f KKT factorizations per QP",
		w.solves, w.iterations, float64(w.kktFactors)/float64(w.solves))
}
