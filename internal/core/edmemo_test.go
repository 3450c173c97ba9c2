package core_test

import (
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// TestEDMemoCounted: the dive's dispatch memo reports its traffic through
// the model's registry. A cold budgeted case57 attack misses (every miss
// is a dispatch solve, feasible or not) and hits; repeating the attack on
// the same Knowledge asks for the same ratings, so it only hits.
func TestEDMemoCounted(t *testing.T) {
	net, err := cases.Case57()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(net)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m.Metrics = reg
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		ud[li] = net.Lines[li].RateMVA
	}
	k, err := core.NewKnowledge(m, ud)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxNodes: 40, RelGap: 1e-3, Workers: 1}
	count := func() (hits, misses, solves int64) {
		return reg.Counter("core_edmemo_hits_total").Value(), reg.Counter("core_edmemo_misses_total").Value(),
			reg.Counter("dispatch_solves_total").Value() + reg.Counter("dispatch_infeasible_total").Value()
	}
	first, err := core.FindOptimalAttack(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, solves := count()
	if hits == 0 || misses == 0 {
		t.Fatalf("cold attack counted %d memo hits and %d misses, want both > 0", hits, misses)
	}
	if misses > solves {
		t.Fatalf("%d memo misses but only %d dispatch solves", misses, solves)
	}
	second, err := core.FindOptimalAttack(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameAttack(t, "repeat on the same Knowledge", first, second)
	hits2, misses2, _ := count()
	if misses2 != misses || hits2 <= hits {
		t.Fatalf("repeat attack moved the memo from %d hits/%d misses to %d/%d, want only hits", hits, misses, hits2, misses2)
	}
	t.Logf("cold: %d hits, %d misses; repeat: %d hits", hits, misses, hits2-hits)
}
