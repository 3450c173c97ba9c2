package core_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
)

// knowledgeFor builds attacker knowledge with true dynamic ratings at the
// static values for an arbitrary benchmark case.
func knowledgeFor(t testing.TB, build func() (*grid.Network, error)) *core.Knowledge {
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
	k, err := core.NewKnowledge(m, ud)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// sameAttack asserts the attack-identity fields — gain, target, direction
// and the full DLR manipulation vector — are bit-identical.
func sameAttack(t *testing.T, label string, want, got *core.Attack) {
	t.Helper()
	if got.GainPct != want.GainPct {
		t.Errorf("%s: gain %v, want %v", label, got.GainPct, want.GainPct)
	}
	if got.TargetLine != want.TargetLine {
		t.Errorf("%s: target line %d, want %d", label, got.TargetLine, want.TargetLine)
	}
	if got.Direction != want.Direction {
		t.Errorf("%s: direction %d, want %d", label, got.Direction, want.Direction)
	}
	if len(got.DLR) != len(want.DLR) {
		t.Fatalf("%s: DLR vector has %d entries, want %d", label, len(got.DLR), len(want.DLR))
	}
	for li, v := range want.DLR {
		gv, ok := got.DLR[li]
		if !ok {
			t.Errorf("%s: DLR vector missing line %d", label, li)
			continue
		}
		if gv != v {
			t.Errorf("%s: DLR[%d] = %v, want %v", label, li, gv, v)
		}
	}
}

// TestFindOptimalAttackDeterministicAcrossWorkers is the worker-count
// independence contract: with exact (non-truncating) solves, Algorithm 1
// must return the identical attack for every worker count, even though the
// shared incumbent bound makes pruning schedule-dependent.
func TestFindOptimalAttackDeterministicAcrossWorkers(t *testing.T) {
	// Exactly solvable cases only: case118's subproblems cannot close the
	// branch-and-bound gap in test-scale time, and under a truncating node
	// budget the worker schedule may legitimately affect the reported
	// incumbent (see Options.Workers) — so it cannot pin this contract.
	builds := []struct {
		name  string
		build func() (*grid.Network, error)
	}{
		{"case9", cases.Case9},
		{"case30", cases.Case30},
		{"case57", cases.Case57},
	}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			k := knowledgeFor(t, b.build)
			// Exact solves only: the determinism guarantee requires every
			// subproblem to prove its optimum (see Options.Workers).
			o := core.Options{RelGap: 1e-6}
			var ref *core.Attack
			for _, w := range workerCounts {
				o.Workers = w
				att, err := core.FindOptimalAttack(k, o)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !att.Exact {
					t.Fatalf("workers=%d: solve truncated; determinism contract needs exact solves", w)
				}
				if att.Stats == nil || att.Stats.Gap != 0 || att.Stats.BestBoundPct != att.GainPct {
					t.Fatalf("workers=%d: exact attack carries bound %v gap %v",
						w, att.Stats.BestBoundPct, att.Stats.Gap)
				}
				if ref == nil {
					ref = att
					if math.IsNaN(att.GainPct) {
						t.Fatalf("NaN gain at workers=%d", w)
					}
					continue
				}
				sameAttack(t, b.name+"/workers="+itoa(w), ref, att)
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestGreedyAndRandomDeterministicAcrossWorkers pins the baseline
// attackers' worker-count independence: candidate generation is sequential
// and merging is index-ordered, so the parallel sweeps must reproduce the
// sequential result exactly.
func TestGreedyAndRandomDeterministicAcrossWorkers(t *testing.T) {
	k := knowledgeFor(t, cases.Case9)
	grdSeq, err := core.GreedyVertexAttackWorkers(k, 1)
	if err != nil {
		t.Fatalf("greedy sequential: %v", err)
	}
	rndSeq, err := core.RandomAttackWorkers(k, 64, 7, 1)
	if err != nil {
		t.Fatalf("random sequential: %v", err)
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		grd, err := core.GreedyVertexAttackWorkers(k, w)
		if err != nil {
			t.Fatalf("greedy workers=%d: %v", w, err)
		}
		sameAttack(t, "greedy/workers="+itoa(w), grdSeq, grd)
		rnd, err := core.RandomAttackWorkers(k, 64, 7, w)
		if err != nil {
			t.Fatalf("random workers=%d: %v", w, err)
		}
		sameAttack(t, "random/workers="+itoa(w), rndSeq, rnd)
	}
}
