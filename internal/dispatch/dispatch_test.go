package dispatch_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/telemetry"
)

func model3(t *testing.T) *dispatch.Model {
	t.Helper()
	n, err := cases.Case3(cases.Case3Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	return m
}

func TestCase3NoAttackMatchesPaper(t *testing.T) {
	// Paper Section IV-A: with all ratings 160 and d = 300, the optimal
	// generation is (p1, p2) = (120, 180) with flows (-20, 140, 160).
	m := model3(t)
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(res.P[0]-120) > 1e-5 || math.Abs(res.P[1]-180) > 1e-5 {
		t.Fatalf("dispatch = %v, want [120 180]", res.P)
	}
	want := []float64{-20, 140, 160}
	for i, w := range want {
		if math.Abs(res.Flows[i]-w) > 1e-5 {
			t.Fatalf("flow[%d] = %v, want %v", i, res.Flows[i], w)
		}
	}
	// Line {2,3} is the congested one.
	found := false
	for _, li := range res.Binding {
		if li == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("line {2,3} not binding: %v", res.Binding)
	}
	if res.LineDuals[2] == 0 {
		t.Fatal("congested line must have a nonzero shadow price")
	}
	// Cost: b·p1·2 + b·p2 with b = 10 → 2·10·120 + 10·180 = 4200.
	if math.Abs(res.Cost-4200) > 1e-4 {
		t.Fatalf("cost = %v, want 4200", res.Cost)
	}
}

func TestCase3ManipulatedRatings(t *testing.T) {
	// Under attack ratings ua = (·, 100, 200) the cheap generator G2 is
	// allowed to push 200 MW down line {2,3}.
	m := model3(t)
	ratings := []float64{160, 100, 200}
	res, err := m.Solve(ratings)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(res.Flows[2]-200) > 1e-5 {
		t.Fatalf("flow on {2,3} = %v, want 200", res.Flows[2])
	}
	if math.Abs(res.Flows[1]-100) > 1e-5 {
		t.Fatalf("flow on {1,3} = %v, want 100", res.Flows[1])
	}
}

func TestInfeasibleWhenRatingsTooTight(t *testing.T) {
	m := model3(t)
	_, err := m.Solve([]float64{10, 10, 10})
	if !errors.Is(err, dispatch.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestQuadraticCase9(t *testing.T) {
	n, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var total float64
	for _, p := range res.P {
		total += p
	}
	if math.Abs(total-n.TotalDemand()) > 1e-5 {
		t.Fatalf("supply %v != demand %v", total, n.TotalDemand())
	}
	// With no congestion at this load level, marginal costs must be
	// (nearly) equal across interior units.
	var mcs []float64
	for i := range n.Gens {
		p := res.P[i]
		if p > n.Gens[i].Pmin+1e-4 && p < n.Gens[i].Pmax-1e-4 {
			mcs = append(mcs, n.Gens[i].MarginalCost(p))
		}
	}
	for i := 1; i < len(mcs); i++ {
		if math.Abs(mcs[i]-mcs[0]) > 1e-3 {
			t.Fatalf("marginal costs diverge: %v", mcs)
		}
	}
}

func TestSetDemands(t *testing.T) {
	m := model3(t)
	d := []float64{0, 0, 150}
	if err := m.SetDemands(d); err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range res.P {
		total += p
	}
	if math.Abs(total-150) > 1e-6 {
		t.Fatalf("supply %v != 150", total)
	}
	if err := m.SetDemands(nil); err != nil {
		t.Fatal(err)
	}
	if m.Demand != 300 {
		t.Fatalf("demand restore = %v", m.Demand)
	}
	if err := m.SetDemands([]float64{1}); err == nil {
		t.Fatal("want demand length error")
	}
}

func TestSolveErrors(t *testing.T) {
	m := model3(t)
	if _, err := m.Solve([]float64{1}); err == nil {
		t.Fatal("want ratings length error")
	}
	if _, err := m.SolveRobust(1.5); err == nil {
		t.Fatal("want margin range error")
	}
}

func TestSolveRobustTightensDLRLines(t *testing.T) {
	m := model3(t)
	// Note: case3 must deliver 300 MW over the two DLR lines into bus 3,
	// so any margin above 1/15 ≈ 6.7% is infeasible — itself a meaningful
	// observation about the cost of this mitigation.
	if _, err := m.SolveRobust(0.2); !errors.Is(err, dispatch.ErrInfeasible) {
		t.Fatalf("20%% margin should be infeasible on case3, got %v", err)
	}
	res, err := m.SolveRobust(0.05)
	if err != nil {
		t.Fatalf("SolveRobust: %v", err)
	}
	// DLR lines derated to 152; flows must respect that.
	for _, li := range m.Net.DLRLines() {
		if math.Abs(res.Flows[li]) > 152+1e-6 {
			t.Fatalf("robust dispatch exceeds derated rating on line %d: %v", li, res.Flows[li])
		}
	}
}

func TestFlowsForMatchesSolve(t *testing.T) {
	m := model3(t)
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := m.FlowsFor(res.P)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if math.Abs(flows[i]-res.Flows[i]) > 1e-9 {
			t.Fatal("FlowsFor mismatch")
		}
	}
	if _, err := m.FlowsFor([]float64{1}); err == nil {
		t.Fatal("want length error")
	}
}

func TestEvaluateACCase3(t *testing.T) {
	n, err := cases.Case3(cases.Case3Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	// Attacked dispatch: ratings (160, 100, 200) push 200 MW down {2,3};
	// the true rating is 160, so the AC evaluation must flag a violation.
	res, err := m.Solve([]float64{160, 100, 200})
	if err != nil {
		t.Fatal(err)
	}
	trueRatings := []float64{160, 160, 160}
	ev, err := dispatch.EvaluateAC(n, res.P, trueRatings)
	if err != nil {
		t.Fatalf("EvaluateAC: %v", err)
	}
	if len(ev.Violations) == 0 {
		t.Fatal("attacked dispatch must violate true ratings under AC")
	}
	if ev.WorstPct < 20 {
		t.Fatalf("worst violation = %v%%, want ≥ 20%% (DC predicts 25%%)", ev.WorstPct)
	}
	// The AC-realized cost exceeds the DC estimate (losses are served by
	// the expensive slack unit).
	if ev.Cost <= res.Cost {
		t.Fatalf("AC cost %v must exceed DC cost %v", ev.Cost, res.Cost)
	}
	if _, err := dispatch.EvaluateAC(n, res.P, []float64{1}); err == nil {
		t.Fatal("want ratings length error")
	}
}

func TestEvaluateACNoViolationsNominal(t *testing.T) {
	n, err := cases.Case3(cases.Case3Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate against generous ratings: no violations expected.
	generous := []float64{300, 300, 300}
	ev, err := dispatch.EvaluateAC(n, res.P, generous)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Violations) != 0 || ev.WorstPct != 0 {
		t.Fatalf("unexpected violations: %+v", ev.Violations)
	}
}

func TestCase118Feasible(t *testing.T) {
	n, err := cases.Case118()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(nil)
	if err != nil {
		t.Fatalf("118-bus ED failed: %v", err)
	}
	var total float64
	for _, p := range res.P {
		total += p
	}
	if math.Abs(total-n.TotalDemand()) > 1e-4 {
		t.Fatalf("supply %v != demand %v", total, n.TotalDemand())
	}
	// Ratings respected.
	ratings := n.Ratings(nil)
	for li, f := range res.Flows {
		if u := ratings[li]; u > 0 && math.Abs(f) > u+1e-4 {
			t.Fatalf("line %d flow %v exceeds rating %v", li, f, u)
		}
	}
}

// Property: for random demands and rating scalings on case9, any returned
// dispatch is feasible (balance, bounds, flow limits), and cost decreases
// weakly as ratings are relaxed.
func TestPropertyDispatchFeasibilityAndMonotonicity(t *testing.T) {
	n, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(n)
	if err != nil {
		t.Fatal(err)
	}
	baseRatings := n.Ratings(nil)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		scale := 0.55 + 0.6*r.Float64()
		ratings := make([]float64, len(baseRatings))
		for i := range ratings {
			ratings[i] = baseRatings[i] * scale
		}
		res, err := m.Solve(ratings)
		if errors.Is(err, dispatch.ErrInfeasible) {
			return true // tight ratings may legitimately be infeasible
		}
		if err != nil {
			return false
		}
		var total float64
		for i, p := range res.P {
			if p < n.Gens[i].Pmin-1e-6 || p > n.Gens[i].Pmax+1e-6 {
				return false
			}
			total += p
		}
		if math.Abs(total-n.TotalDemand()) > 1e-5 {
			return false
		}
		for li, fl := range res.Flows {
			if u := ratings[li]; u > 0 && math.Abs(fl) > u+1e-5 {
				return false
			}
		}
		// Relaxing ratings cannot increase cost.
		relaxed := make([]float64, len(ratings))
		for i := range ratings {
			relaxed[i] = ratings[i] * 1.3
		}
		res2, err := m.Solve(relaxed)
		if err != nil {
			return false
		}
		return res2.Cost <= res.Cost+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LP and QP agree when quadratic terms are (effectively) zero.
func TestPropertyLPQPConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		demand := 150 + 200*r.Float64()
		nLP, err := cases.Case3(cases.Case3Options{Demand: demand})
		if err != nil {
			return false
		}
		mLP, err := dispatch.BuildModel(nLP)
		if err != nil {
			return false
		}
		resLP, errLP := mLP.Solve(nil)

		nQP := nLP.Clone()
		for i := range nQP.Gens {
			nQP.Gens[i].CostA = 1e-7 // force the QP path
		}
		if err := nQP.Validate(); err != nil {
			return false
		}
		mQP, err := dispatch.BuildModel(nQP)
		if err != nil {
			return false
		}
		resQP, errQP := mQP.Solve(nil)
		if errLP != nil || errQP != nil {
			return errors.Is(errLP, dispatch.ErrInfeasible) == errors.Is(errQP, dispatch.ErrInfeasible)
		}
		return math.Abs(resLP.Cost-resQP.Cost) < 1e-2*(1+math.Abs(resLP.Cost)) &&
			mat.NormInf(mat.Sub(resLP.P, resQP.P)) < 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A network with one linear-cost unit has a Hessian that is not positive
// definite, so its QP dispatch runs the primal active set from an LP
// feasible start; with every unit quadratic no LP runs. The mixed case
// still matches the hand-solved dispatch: on case3 (demand 300, ratings
// 160) line {2,3} carries (p2 + 300)/3, so it caps the cheap linear G2 at
// 180 MW and the quadratic G1 (0.05·p² + 20·p) serves 120 MW at marginal
// cost 32. The line's shadow price is 3·(32 − 10) = 66 $/MWh and the cost
// 0.05·120² + 20·120 + 10·180 = 4920 $/h.
func TestMixedCostRoutesToPrimal(t *testing.T) {
	solve := func(costA2 float64) (*dispatch.Result, *telemetry.Registry) {
		t.Helper()
		n, err := cases.Case3(cases.Case3Options{})
		if err != nil {
			t.Fatal(err)
		}
		n.Gens[0].CostA = 0.05
		n.Gens[1].CostA = costA2
		m, err := dispatch.BuildModel(n)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		m.Metrics = reg
		res, err := m.Solve(nil)
		if err != nil {
			t.Fatalf("Solve (G2 CostA %g): %v", costA2, err)
		}
		if reg.Counter("qp_solves_total").Value() == 0 {
			t.Fatalf("G2 CostA %g: dispatch did not take the QP path", costA2)
		}
		return res, reg
	}
	res, reg := solve(0)
	if reg.Counter("lp_solves_total").Value() == 0 {
		t.Error("mixed-cost dispatch ran no feasibility LP: the primal method did not run")
	}
	if math.Abs(res.P[0]-120) > 1e-6 || math.Abs(res.P[1]-180) > 1e-6 {
		t.Errorf("dispatch = %v, want [120 180]", res.P)
	}
	if math.Abs(res.Flows[2]-160) > 1e-6 {
		t.Errorf("flow on {2,3} = %v, want 160", res.Flows[2])
	}
	if math.Abs(res.LineDuals[2]-66) > 1e-6 {
		t.Errorf("shadow price of {2,3} = %v, want 66", res.LineDuals[2])
	}
	if math.Abs(res.Cost-4920) > 1e-6 {
		t.Errorf("cost = %v, want 4920", res.Cost)
	}
	if _, reg := solve(0.01); reg.Counter("lp_solves_total").Value() != 0 {
		t.Errorf("all-quadratic dispatch ran %d LPs, want 0", reg.Counter("lp_solves_total").Value())
	}
}

// TestHotStartMatchesCold walks case30 and case118 through a seeded
// sequence of rating vectors twice: on one model that carries its
// warm-start memory (the binding set and the QP working set) from solve to
// solve, and on a clone reset cold before every solve. The dispatch QP
// keeps its working set in row order, so every Result must be bit-identical
// in P, Flows, Cost, LineDuals, and Binding; only the work may differ, and
// the hot walk must do less of it.
func TestHotStartMatchesCold(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*grid.Network, error)
	}{{"case30", cases.Case30}, {"case118", cases.Case118}} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			hot, err := dispatch.BuildModel(net)
			if err != nil {
				t.Fatal(err)
			}
			hotReg, coldReg := telemetry.NewRegistry(), telemetry.NewRegistry()
			hot.Metrics = hotReg
			cold := hot.ShallowClone()
			cold.Metrics = coldReg
			solved, congested := 0, 0
			walkRatings(net, func(step int, ratings []float64) {
				want, werr := hot.Solve(ratings)
				cold.ResetWarmStart()
				got, gerr := cold.Solve(ratings)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("step %d: hot err %v, cold err %v", step, werr, gerr)
				}
				if werr != nil {
					return
				}
				solved++
				if len(want.Binding) > 0 {
					congested++
				}
				if d := resultDiff(want, got); d != "" {
					t.Fatalf("step %d: hot vs cold: %s", step, d)
				}
			})
			if solved < 30 || congested < 10 {
				t.Fatalf("%d of 60 steps solved, %d congested: the walk exercises too little", solved, congested)
			}
			hi, ci := hotReg.Counter("qp_iterations_total").Value(), coldReg.Counter("qp_iterations_total").Value()
			if hi >= ci {
				t.Fatalf("hot walk took %d QP iterations, cold %d: the hot start saved nothing", hi, ci)
			}
			t.Logf("%d solves (%d congested): %d QP iterations hot, %d cold", solved, congested, hi, ci)
		})
	}
}

// walkRatings calls visit with each of 60 rating vectors of a seeded walk
// around the network's nominal ratings: every line's scale moves by up to
// ±5% a step, within [0.75, 1.15]. The vector is reused between steps.
func walkRatings(net *grid.Network, visit func(step int, ratings []float64)) {
	nominal := net.Ratings(nil)
	scale := make([]float64, len(nominal))
	for i := range scale {
		scale[i] = 1
	}
	r := rand.New(rand.NewSource(7))
	ratings := make([]float64, len(nominal))
	for step := 0; step < 60; step++ {
		for i := range scale {
			scale[i] = min(max(scale[i]*(0.95+0.1*r.Float64()), 0.75), 1.15)
			ratings[i] = nominal[i] * scale[i]
		}
		visit(step, ratings)
	}
}

// resultDiff describes the first bit-level difference between two
// dispatch results in P, Flows, Cost, LineDuals, or Binding, or returns ""
// when they are identical.
func resultDiff(a, b *dispatch.Result) string {
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return fmt.Sprintf("cost %v vs %v", a.Cost, b.Cost)
	}
	same := func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }
	for _, v := range []struct {
		name string
		x, y []float64
	}{{"P", a.P, b.P}, {"Flows", a.Flows, b.Flows}, {"LineDuals", a.LineDuals, b.LineDuals}} {
		if !slices.EqualFunc(v.x, v.y, same) {
			return v.name + " differs"
		}
	}
	if !slices.Equal(a.Binding, b.Binding) {
		return fmt.Sprintf("binding %v vs %v", a.Binding, b.Binding)
	}
	return ""
}

// TestPersistentQPMatchesRebuilt walks case30 and case118 through the
// TestHotStartMatchesCold rating sequence on one warm model, whose QP is
// built once and re-solved by changing row sides under a carried KKTCache
// and hot start, and checks every Result against SolveRebuilt: the final
// round's QP built afresh from copied rows, solved cold, and assembled from
// a second M·p. P, Flows, Cost, LineDuals, and Binding must be
// bit-identical.
func TestPersistentQPMatchesRebuilt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*grid.Network, error)
	}{{"case30", cases.Case30}, {"case118", cases.Case118}} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := dispatch.BuildModel(net)
			if err != nil {
				t.Fatal(err)
			}
			solved, congested := 0, 0
			walkRatings(net, func(step int, ratings []float64) {
				got, err := m.Solve(ratings)
				if err != nil {
					return
				}
				want, err := m.SolveRebuilt(ratings)
				if err != nil {
					t.Fatalf("step %d: rebuilt: %v", step, err)
				}
				solved++
				if len(got.Binding) > 0 {
					congested++
				}
				if d := resultDiff(want, got); d != "" {
					t.Fatalf("step %d: persistent vs rebuilt: %s", step, d)
				}
			})
			if solved < 30 || congested < 10 {
				t.Fatalf("%d of 60 steps solved, %d congested: the walk exercises too little", solved, congested)
			}
		})
	}
}

// TestHotResolveZeroAlloc pins the dispatch's steady state: once a model's
// QP, KKT factors, warm-start memory, and workspace are warm, a congested
// case118 re-solve in one round allocates exactly 5 objects — the returned
// Result, the one array behind its P, Flows, and LineDuals, its Binding,
// and the qp.Solution (struct and array) the Result is copied from.
func TestHotResolveZeroAlloc(t *testing.T) {
	net, err := cases.Case118()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dispatch.BuildModel(net)
	if err != nil {
		t.Fatal(err)
	}
	m.Workspace = lp.NewWorkspace()
	ratings := net.Ratings(nil)
	for i := range ratings {
		ratings[i] *= 0.9
	}
	var res *dispatch.Result
	for i := 0; i < 3; i++ {
		if res, err = m.Solve(ratings); err != nil {
			t.Fatal(err)
		}
	}
	if len(res.Binding) == 0 || res.Rounds != 1 {
		t.Fatalf("warm re-solve: %d binding lines in %d rounds, want congestion in one round", len(res.Binding), res.Rounds)
	}
	const want = 5.0
	if allocs := testing.AllocsPerRun(20, func() { _, _ = m.Solve(ratings) }); allocs != want {
		t.Fatalf("hot re-solve allocates %.1f objects, want %.0f (the Result and its slices, the qp.Solution)", allocs, want)
	}
}
