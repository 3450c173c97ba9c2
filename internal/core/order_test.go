package core_test

import (
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/milp"
)

// TestNodeOrderDeterministicAttacks is the strategy-independence contract at
// the Algorithm 1 level: on exactly solvable cases, every node-selection
// strategy — with and without pseudo-cost branching — must report the
// identical attack at one worker and at four. The full manipulated-rating
// vector is compared across every configuration: exact solves all land on
// the same quantized optimum, and the choked-canonical attack construction
// makes the reported vector a function of that optimum alone, not of the
// search trajectory.
func TestNodeOrderDeterministicAttacks(t *testing.T) {
	builds := []struct {
		name  string
		build func() (*grid.Network, error)
	}{
		{"case9", cases.Case9},
		{"case30", cases.Case30},
		{"case57", cases.Case57},
	}
	orders := []milp.NodeOrder{milp.OrderDFS, milp.OrderBestFirst, milp.OrderHybrid}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			k := knowledgeFor(t, b.build)
			var ref *core.Attack
			for _, order := range orders {
				for _, full := range []bool{false, true} {
					for _, w := range []int{1, 4} {
						o := core.Options{
							RelGap:     1e-6,
							Workers:    w,
							NodeOrder:  order,
							PseudoCost: full,
						}
						att, err := core.FindOptimalAttack(k, o)
						if err != nil {
							t.Fatalf("order=%v full=%v workers=%d: %v", order, full, w, err)
						}
						if !att.Exact {
							t.Fatalf("order=%v full=%v workers=%d: solve truncated", order, full, w)
						}
						if att.Stats == nil || att.Stats.Gap != 0 || att.Stats.BestBoundPct != att.GainPct {
							t.Fatalf("order=%v full=%v workers=%d: exact attack carries bound %v gap %v",
								order, full, w, att.Stats.BestBoundPct, att.Stats.Gap)
						}
						if ref == nil {
							ref = att
							continue
						}
						label := b.name + "/order=" + order.String() + "/workers=" + itoa(w)
						if full {
							label += "/full"
						}
						sameAttack(t, label, ref, att)
					}
				}
			}
		})
	}
}
