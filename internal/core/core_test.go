package core_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// knowledge3 builds attacker knowledge for the paper's 3-bus case with
// given true DLR values on lines {1,3} (index 1) and {2,3} (index 2).
func knowledge3(t *testing.T, ud13, ud23 float64) *core.Knowledge {
	t.Helper()
	n, err := cases.Case3(cases.Case3Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.NewKnowledge(m, map[int]float64{1: ud13, 2: ud23})
	if err != nil {
		t.Fatalf("NewKnowledge: %v", err)
	}
	return k
}

func TestNewKnowledgeValidation(t *testing.T) {
	n, err := cases.Case3(cases.Case3Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewKnowledge(m, map[int]float64{1: 160}); err == nil {
		t.Fatal("want missing-DLR-entry error")
	}
	if _, err := core.NewKnowledge(m, map[int]float64{1: 160, 2: 999}); err == nil {
		t.Fatal("want out-of-band error")
	}
	if _, err := core.NewKnowledge(m, map[int]float64{0: 160, 1: 160, 2: 160}); err == nil {
		t.Fatal("want non-DLR-line error")
	}
}

// TestNewKnowledgeRejectsNaN: a NaN true rating fails every band
// comparison, so it must be rejected by name, as the EMS bound check
// rejects a NaN manipulated rating — not accepted only to surface later as
// a NaN objective coefficient inside the attack's LP.
func TestNewKnowledgeRejectsNaN(t *testing.T) {
	n, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range n.DLRLines() {
		ud := map[int]float64{}
		for _, li := range n.DLRLines() {
			ud[li] = n.Lines[li].RateMVA
		}
		ud[bad] = math.NaN()
		_, err := core.NewKnowledge(m, ud)
		if err == nil {
			t.Fatalf("NewKnowledge accepted a NaN true DLR on line %d", bad)
		}
		if want := fmt.Sprintf("line %d", bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

func TestNewKnowledgeNoDLR(t *testing.T) {
	n, err := cases.Case3(cases.Case3Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Lines {
		n.Lines[i].HasDLR = false
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewKnowledge(m, nil); !errors.Is(err, core.ErrNoDLRLines) {
		t.Fatalf("want ErrNoDLRLines, got %v", err)
	}
}

// TestTableIRow1 reproduces Table I row 1: true DLRs (130, 120) → optimal
// strategy A with uᵃ = (100, 200), flows (100, 200), violating line {2,3}
// by 80 MW (66.7%).
func TestTableIRow1(t *testing.T) {
	k := knowledge3(t, 130, 120)
	att, err := core.FindOptimalAttack(k, core.Options{})
	if err != nil {
		t.Fatalf("FindOptimalAttack: %v", err)
	}
	if math.Abs(att.DLR[1]-100) > 1e-4 || math.Abs(att.DLR[2]-200) > 1e-4 {
		t.Fatalf("uᵃ = (%v, %v), want (100, 200)", att.DLR[1], att.DLR[2])
	}
	if att.TargetLine != 2 || att.Direction != 1 {
		t.Fatalf("target = line %d dir %d, want line 2 dir +1", att.TargetLine, att.Direction)
	}
	wantGain := 100 * (200.0/120.0 - 1)
	if math.Abs(att.GainPct-wantGain) > 1e-3 {
		t.Fatalf("gain = %v%%, want %v%%", att.GainPct, wantGain)
	}
	if math.Abs(att.PredictedFlows[1]-100) > 1e-4 || math.Abs(att.PredictedFlows[2]-200) > 1e-4 {
		t.Fatalf("flows = %v, want f13=100 f23=200", att.PredictedFlows)
	}
}

// TestTableIAllRows checks the optimal strategy for all four Table I rows:
// the winning strategy and the resulting flows and MW violations.
func TestTableIAllRows(t *testing.T) {
	rows := []struct {
		ud13, ud23 float64
		wantUA13   float64
		wantUA23   float64
		wantViolMW float64 // paper's U_cap column (absolute MW over true)
	}{
		{130, 120, 100, 200, 80},
		{130, 150, 200, 100, 70},
		{160, 150, 100, 200, 50},
		{160, 180, 200, 100, 40},
	}
	for _, row := range rows {
		k := knowledge3(t, row.ud13, row.ud23)
		att, err := core.FindOptimalAttack(k, core.Options{})
		if err != nil {
			t.Fatalf("(%v,%v): %v", row.ud13, row.ud23, err)
		}
		if math.Abs(att.DLR[1]-row.wantUA13) > 1e-4 || math.Abs(att.DLR[2]-row.wantUA23) > 1e-4 {
			t.Fatalf("(%v,%v): uᵃ = (%v, %v), want (%v, %v)",
				row.ud13, row.ud23, att.DLR[1], att.DLR[2], row.wantUA13, row.wantUA23)
		}
		ud := k.TrueDLR[att.TargetLine]
		violMW := att.GainPct / 100 * ud
		if math.Abs(violMW-row.wantViolMW) > 1e-2 {
			t.Fatalf("(%v,%v): violation = %v MW, want %v", row.ud13, row.ud23, violMW, row.wantViolMW)
		}
	}
}

// TestAttackRespectsStealthBounds: every manipulated rating stays inside
// the EMS plausibility band.
func TestAttackRespectsStealthBounds(t *testing.T) {
	k := knowledge3(t, 130, 120)
	att, err := core.FindOptimalAttack(k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bad := k.Model.Net.CheckDLRBounds(att.DLR); len(bad) != 0 {
		t.Fatalf("attack fails EMS bound check on lines %v", bad)
	}
}

// TestPredictionMatchesOperatorED: replaying the attack through the
// operator's actual dispatch reproduces the predicted gain (optimistic
// bilevel consistency).
func TestPredictionMatchesOperatorED(t *testing.T) {
	k := knowledge3(t, 130, 120)
	att, err := core.FindOptimalAttack(k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := k.EvaluateAttack(att.DLR)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Fatal("optimal attack must keep the operator's ED feasible")
	}
	if math.Abs(ev.GainPct-att.GainPct) > 1e-3 {
		t.Fatalf("realized gain %v%% != predicted %v%%", ev.GainPct, att.GainPct)
	}
}

// TestNoAttackNoViolation: leaving ratings at their true values yields zero
// gain — ED respects the ratings it is given.
func TestNoAttackNoViolation(t *testing.T) {
	k := knowledge3(t, 160, 160)
	ev, err := k.EvaluateAttack(map[int]float64{1: 160, 2: 160})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible || ev.GainPct != 0 {
		t.Fatalf("no-attack evaluation: feasible=%v gain=%v", ev.Feasible, ev.GainPct)
	}
}

func TestBigMMatchesComplementarity(t *testing.T) {
	for _, ud := range [][2]float64{{130, 120}, {130, 150}, {160, 150}, {160, 180}, {145, 145}} {
		k := knowledge3(t, ud[0], ud[1])
		a1, err := core.FindOptimalAttack(k, core.Options{Method: core.MethodComplementarity})
		if err != nil {
			t.Fatalf("complementarity (%v): %v", ud, err)
		}
		a2, err := core.FindOptimalAttack(k, core.Options{Method: core.MethodBigM})
		if err != nil {
			t.Fatalf("big-M (%v): %v", ud, err)
		}
		if math.Abs(a1.GainPct-a2.GainPct) > 1e-3 {
			t.Fatalf("(%v): complementarity gain %v != big-M gain %v", ud, a1.GainPct, a2.GainPct)
		}
	}
	// The IEEE-sized cases at default options. Their big-M searches reach
	// infeasible node LPs on which the cold two-phase solve fails
	// numerically ("row 47 empty" on case30, a 0/0 pivot on case57); the
	// warm dual simplex's Farkas-certified verdicts keep branch and bound
	// off that path.
	for _, c := range []struct {
		name  string
		build func() (*grid.Network, error)
	}{
		{"case9", cases.Case9},
		{"case30", cases.Case30},
		{"case57", cases.Case57},
	} {
		k := knowledgeFor(t, c.build)
		a1, err := core.FindOptimalAttack(k, core.Options{Method: core.MethodComplementarity})
		if err != nil {
			t.Fatalf("%s complementarity: %v", c.name, err)
		}
		a2, err := core.FindOptimalAttack(k, core.Options{Method: core.MethodBigM})
		if err != nil {
			t.Fatalf("%s big-M: %v", c.name, err)
		}
		if math.Abs(a1.GainPct-a2.GainPct) > 1e-3 {
			t.Fatalf("%s: complementarity gain %v != big-M gain %v", c.name, a1.GainPct, a2.GainPct)
		}
	}
}

// TestNodeRelaxationErrorDropsNode pins the numerical-failure path of
// branch and bound: on case57 the cold big-M node relaxations hit an
// unstable pivot within 60 nodes. The failed node is dropped, so the attack
// still comes back, reported inexact, with a gain the true ED realizes.
func TestNodeRelaxationErrorDropsNode(t *testing.T) {
	k := knowledgeFor(t, cases.Case57)
	reg := telemetry.NewRegistry()
	att, err := core.FindOptimalAttack(k, core.Options{
		Method: core.MethodBigM, NoWarmStart: true, MaxNodes: 60, Workers: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("a failed node relaxation aborted the attack: %v", err)
	}
	if n := reg.Counter("milp_node_errors_total").Value(); n < 1 {
		t.Fatalf("milp_node_errors_total = %d, want >= 1: the reproducer no longer fails a node", n)
	}
	if att.Exact {
		t.Fatal("attack with a dropped node reported exact")
	}
	ev, err := k.EvaluateAttack(att.DLR)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible || math.Abs(ev.GainPct-att.GainPct) > 1e-4 {
		t.Fatalf("reported gain %v, realized %v (feasible %v)", att.GainPct, ev.GainPct, ev.Feasible)
	}
}

func TestMonitorAllMatchesRowGeneration(t *testing.T) {
	k := knowledge3(t, 130, 120)
	a1, err := core.FindOptimalAttack(k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.FindOptimalAttack(k, core.WithMonitorAll(core.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.GainPct-a2.GainPct) > 1e-4 {
		t.Fatalf("row-generation gain %v != monitor-all gain %v", a1.GainPct, a2.GainPct)
	}
}

func TestGreedyVertexAttack(t *testing.T) {
	k := knowledge3(t, 130, 120)
	att, err := core.GreedyVertexAttack(k)
	if err != nil {
		t.Fatalf("GreedyVertexAttack: %v", err)
	}
	// On the 3-bus case the greedy vertex IS the optimum (Table I).
	if math.Abs(att.GainPct-100*(200.0/120.0-1)) > 1e-3 {
		t.Fatalf("greedy gain = %v", att.GainPct)
	}
}

func TestRandomAttackWeaker(t *testing.T) {
	k := knowledge3(t, 130, 120)
	opt, err := core.FindOptimalAttack(k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := core.RandomAttack(k, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.GainPct > opt.GainPct+1e-6 {
		t.Fatalf("random attack gain %v exceeds optimal %v", rnd.GainPct, opt.GainPct)
	}
}

func TestEvaluateAttackRejectsOutOfBand(t *testing.T) {
	k := knowledge3(t, 130, 120)
	if _, err := k.EvaluateAttack(map[int]float64{1: 5000, 2: 160}); err == nil {
		t.Fatal("want EMS bound-check rejection")
	}
}

func TestSortedDLRLines(t *testing.T) {
	k := knowledge3(t, 150, 120)
	got := core.SortedDLRLines(k)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("SortedDLRLines = %v, want [2 1] (ascending true rating)", got)
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range []core.Method{core.MethodComplementarity, core.MethodBigM, core.Method(9)} {
		if m.String() == "" {
			t.Fatal("empty method string")
		}
	}
}

// TestOptimalBeatsGreedyOnCase9 uses the quadratic-cost 9-bus system where
// vertex attacks are not guaranteed optimal; the bilevel optimum must
// weakly dominate.
func TestOptimalBeatsGreedyOnCase9(t *testing.T) {
	n, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	ud := map[int]float64{}
	for _, li := range n.DLRLines() {
		ud[li] = n.Lines[li].RateMVA * 0.7 // warm day: true ratings below static
	}
	k, err := core.NewKnowledge(m, ud)
	if err != nil {
		t.Fatal(err)
	}
	opt, optErr := core.FindOptimalAttack(k, core.Options{})
	grd, grdErr := core.GreedyVertexAttack(k)
	if optErr != nil && !errors.Is(optErr, core.ErrNoFeasibleAttack) {
		t.Fatalf("optimal: %v", optErr)
	}
	if grdErr != nil && !errors.Is(grdErr, core.ErrNoFeasibleAttack) {
		t.Fatalf("greedy: %v", grdErr)
	}
	if optErr == nil && grdErr == nil && opt.GainPct < grd.GainPct-1e-4 {
		t.Fatalf("optimal gain %v below greedy %v", opt.GainPct, grd.GainPct)
	}
	if optErr == nil {
		// The prediction must replay consistently.
		ev, err := k.EvaluateAttack(opt.DLR)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Feasible {
			t.Fatal("optimal attack infeasible when replayed")
		}
	}
}
