package core_test

import (
	"math/rand"
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// TestKKTFactorReuseCounted pins the dispatch QP's KKT factorization reuse
// by its work counters: a cold budgeted case57 attack — whose dispatch QP
// is small enough for the dense KKT path — reports the same factorization
// count on every run, and at most a third as many factorizations as KKT
// solves. Without cross-solve reuse every dense KKT solve factors afresh.
func TestKKTFactorReuseCounted(t *testing.T) {
	run := func() (att *core.Attack, solves, factors int64) {
		net, err := cases.Case57()
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
		att, err = core.FindOptimalAttack(k, core.Options{MaxNodes: 40, RelGap: 1e-3, Workers: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return att, reg.Counter("qp_kkt_solves_total").Value(), reg.Counter("qp_kkt_factorizations_total").Value()
	}
	first, solves, factors := run()
	second, solves2, factors2 := run()
	sameAttack(t, "repeat cold attack", first, second)
	if solves != solves2 || factors != factors2 {
		t.Fatalf("work counts differ between identical runs: %d/%d vs %d/%d factorizations/solves",
			factors, solves, factors2, solves2)
	}
	if solves == 0 {
		t.Fatal("no KKT solves counted")
	}
	if 3*factors > solves {
		t.Fatalf("%d KKT factorizations for %d solves, want at most a third", factors, solves)
	}
	t.Logf("%d KKT factorizations for %d KKT solves", factors, solves)
}
