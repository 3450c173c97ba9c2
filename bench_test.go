// Benchmarks regenerating the paper's tables and figures (see DESIGN.md's
// per-experiment index) plus micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
package edattack_test

import (
	"fmt"
	"testing"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/acflow"
	"github.com/edsec/edattack/internal/dcflow"
	"github.com/edsec/edattack/internal/dlr"
	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/milp"
)

// mustKnowledge builds case3 attacker knowledge for Table I row 1.
func mustKnowledge(b *testing.B, ud13, ud23 float64) *edattack.Knowledge {
	b.Helper()
	net, err := edattack.LoadCase("case3")
	if err != nil {
		b.Fatal(err)
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		b.Fatal(err)
	}
	k, err := edattack.NewKnowledge(model, map[int]float64{1: ud13, 2: ud23})
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// BenchmarkTableI regenerates Table I: Algorithm 1 over the four true-DLR
// combinations of the three-bus case.
func BenchmarkTableI(b *testing.B) {
	rows := [][2]float64{{130, 120}, {130, 150}, {160, 150}, {160, 180}}
	ks := make([]*edattack.Knowledge, len(rows))
	for i, r := range rows {
		ks[i] = mustKnowledge(b, r[0], r[1])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			if _, err := edattack.FindOptimalAttack(k, edattack.AttackOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4aPatterns regenerates Fig. 4a's input series: sinusoidal DLR
// curves and the two-peak demand profile at 15-minute resolution.
func BenchmarkFig4aPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []edattack.Pattern{
			dlr.Sinusoidal(100, 200, 2),
			dlr.Sinusoidal(100, 200, 9),
			dlr.TwoPeakDemand(0.58, 0.72, 0.78),
		} {
			if _, _, err := p.Sample(15); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fig4Config is the Fig. 4 sweep configuration at a configurable step.
func fig4Config(b *testing.B, stepMinutes float64, ac bool) edattack.TimeSeriesConfig {
	b.Helper()
	net, err := edattack.LoadCase("case3")
	if err != nil {
		b.Fatal(err)
	}
	return edattack.TimeSeriesConfig{
		Net:         net,
		DemandScale: dlr.TwoPeakDemand(0.58, 0.72, 0.78),
		RatingPatterns: map[int]edattack.Pattern{
			1: dlr.Sinusoidal(100, 200, 2),
			2: dlr.Sinusoidal(100, 200, 9),
		},
		StepMinutes: stepMinutes,
		Attacker:    edattack.AttackerOptimal,
		ACEvaluate:  ac,
	}
}

// BenchmarkFig4bTimeOfAttack regenerates Fig. 4b: the 24-hour sweep with
// per-step optimal attacks and nonlinear flow evaluation (hourly steps; the
// cmd/repro harness runs the paper's 15-minute resolution).
func BenchmarkFig4bTimeOfAttack(b *testing.B) {
	cfg := fig4Config(b, 60, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edattack.RunTimeSeries(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4cGainCost regenerates Fig. 4c's DC-only curves (bilevel gain
// and defender cost) without the AC pass, isolating the optimization cost.
func BenchmarkFig4cGainCost(b *testing.B) {
	cfg := fig4Config(b, 60, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edattack.RunTimeSeries(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// knowledgeCase builds attacker knowledge with true ratings at the static
// values for a named benchmark case.
func knowledgeCase(tb testing.TB, name string) *edattack.Knowledge {
	tb.Helper()
	net, err := edattack.LoadCase(name)
	if err != nil {
		tb.Fatal(err)
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		tb.Fatal(err)
	}
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		ud[li] = net.Lines[li].RateMVA
	}
	k, err := edattack.NewKnowledge(model, ud)
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// knowledge118 builds the Section IV-B attacker knowledge.
func knowledge118(b *testing.B) *edattack.Knowledge {
	b.Helper()
	return knowledgeCase(b, "case118")
}

// BenchmarkFig5aTimeOfAttack118 regenerates one step of the Fig. 5a sweep:
// the budgeted bilevel attack on the 118-bus case (cmd/repro -exp fig5 runs
// the full day).
func BenchmarkFig5aTimeOfAttack118(b *testing.B) {
	k := knowledge118(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edattack.FindOptimalAttack(k, edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindOptimalAttackWorkers measures Algorithm 1's worker-pool
// scaling: the same attack solved sequentially and with the subproblem
// fan-out at 2 and 4 workers (case30 exact, case118 at the Fig. 5 budget).
// Speedup tracks the machine's core count — on a single-core host the
// worker counts tie; with four or more cores expect the 4-worker rows to
// run a few times faster than workers-1.
func BenchmarkFindOptimalAttackWorkers(b *testing.B) {
	cases := []struct {
		name string
		opts edattack.AttackOptions
	}{
		{"case30", edattack.AttackOptions{RelGap: 1e-3}},
		{"case118", edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3}},
	}
	for _, cs := range cases {
		for _, w := range []int{1, 2, 4} {
			opts := cs.opts
			opts.Workers = w
			b.Run(fmt.Sprintf("%s/workers-%d", cs.name, w), func(b *testing.B) {
				k := knowledgeCase(b, cs.name)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := edattack.FindOptimalAttack(k, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5bLoss118 regenerates Fig. 5b's nonlinear half: the AC
// evaluation of an attacked 118-bus dispatch.
func BenchmarkFig5bLoss118(b *testing.B) {
	k := knowledge118(b)
	att, err := edattack.GreedyAttack(k)
	if err != nil {
		b.Fatal(err)
	}
	net := k.Model.Net
	ratings := net.Ratings(k.TrueDLR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edattack.EvaluateDispatchAC(net, att.PredictedP, ratings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIIValueScan regenerates Table III's pipeline: value scan
// plus structural-signature filtering on the PowerWorld process.
func BenchmarkTableIIIValueScan(b *testing.B) {
	net, err := edattack.LoadCase("case3-fig8")
	if err != nil {
		b.Fatal(err)
	}
	profile, err := edattack.EMSProfileByName("PowerWorld")
	if err != nil {
		b.Fatal(err)
	}
	proc, err := edattack.NewEMSProcess(profile, net, 1)
	if err != nil {
		b.Fatal(err)
	}
	exp, err := edattack.NewEMSExploit(proc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := exp.FindCandidates(proc, 150)
		if got := exp.Filter(proc, cands); len(got) != 3 {
			b.Fatalf("recognized %d", len(got))
		}
	}
}

// BenchmarkTableIVForensics regenerates Table IV: offline object forensics
// across all five vendor profiles.
func BenchmarkTableIVForensics(b *testing.B) {
	caseFor := map[string]string{
		"PowerWorld":       "case3-fig8",
		"NEPLAN":           "case30",
		"PowerFactory":     "case30",
		"Powertools":       "case118",
		"SmartGridToolbox": "case57",
	}
	procs := make([]*edattack.EMSProcess, 0, 5)
	for _, profile := range edattack.EMSProfiles() {
		net, err := edattack.LoadCase(caseFor[profile.Name])
		if err != nil {
			b.Fatal(err)
		}
		proc, err := edattack.NewEMSProcess(profile, net, 1)
		if err != nil {
			b.Fatal(err)
		}
		procs = append(procs, proc)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, proc := range procs {
			rep, err := edattack.EMSForensicsAccuracy(proc)
			if err != nil {
				b.Fatal(err)
			}
			if rep.AccuracyPct != 100 {
				b.Fatalf("%s accuracy %v", rep.EMS, rep.AccuracyPct)
			}
		}
	}
}

// BenchmarkFig8CaseStudy regenerates the Fig. 8 end-to-end attack: process
// build, offline signature, corruption, and the pre/post dispatch steps.
func BenchmarkFig8CaseStudy(b *testing.B) {
	net, err := edattack.LoadCase("case3-fig8")
	if err != nil {
		b.Fatal(err)
	}
	profile, err := edattack.EMSProfileByName("PowerWorld")
	if err != nil {
		b.Fatal(err)
	}
	trueRatings := []float64{150, 150, 150}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc, err := edattack.NewEMSProcess(profile, net, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		exp, err := edattack.NewEMSExploit(proc)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := edattack.NewEMSController(proc)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ctrl.StepACAware(trueRatings); err != nil {
			b.Fatal(err)
		}
		if _, err := edattack.RunMemoryAttack(proc, exp, map[int]float64{1: 120, 2: 240}, nil); err != nil {
			b.Fatal(err)
		}
		_, post, err := ctrl.StepACAware(trueRatings)
		if err != nil {
			b.Fatal(err)
		}
		if len(post.Violations) == 0 {
			b.Fatal("attack had no effect")
		}
	}
}

// BenchmarkAblationSolvers compares the two bilevel reformulations
// (DESIGN.md experiment A1).
func BenchmarkAblationSolvers(b *testing.B) {
	variants := []struct {
		name   string
		method interface{ String() string }
		opts   edattack.AttackOptions
	}{
		{"complementarity", edattack.MethodComplementarity, edattack.AttackOptions{Method: edattack.MethodComplementarity}},
		{"bigM", edattack.MethodBigM, edattack.AttackOptions{Method: edattack.MethodBigM}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			k := mustKnowledge(b, 130, 120)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := edattack.FindOptimalAttack(k, v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBaselines compares attacker baselines (DESIGN.md
// experiment A2) on the quadratic-cost 9-bus case.
func BenchmarkAblationBaselines(b *testing.B) {
	net, err := edattack.LoadCase("case9")
	if err != nil {
		b.Fatal(err)
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		b.Fatal(err)
	}
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		ud[li] = net.Lines[li].RateMVA * 0.7
	}
	k, err := edattack.NewKnowledge(model, ud)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := edattack.GreedyAttack(k); err != nil && err != edattack.ErrNoFeasibleAttack {
				b.Fatal(err)
			}
		}
	})
	b.Run("random50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := edattack.RandomAttack(k, 50, 7); err != nil && err != edattack.ErrNoFeasibleAttack {
				b.Fatal(err)
			}
		}
	})
	b.Run("coordinate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := edattack.CoordinateAscentAttack(k, edattack.CoordinateOptions{GridPoints: 5, MaxSweeps: 3})
			if err != nil && err != edattack.ErrNoFeasibleAttack {
				b.Fatal(err)
			}
		}
	})
	b.Run("bilevel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := edattack.FindOptimalAttack(k, edattack.AttackOptions{})
			if err != nil && err != edattack.ErrNoFeasibleAttack {
				b.Fatal(err)
			}
		}
	})
}

// ---- Substrate micro-benchmarks ----------------------------------------

// BenchmarkDispatchQP118 measures one 118-bus quadratic economic dispatch —
// the inner problem of every bilevel node and every heuristic evaluation.
func BenchmarkDispatchQP118(b *testing.B) {
	net, err := edattack.LoadCase("case118")
	if err != nil {
		b.Fatal(err)
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Solve(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPTDF118 measures the shift-factor matrix build.
func BenchmarkPTDF118(b *testing.B) {
	net, err := edattack.LoadCase("case118")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcflow.PTDF(net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep118 measures the batched scenario-evaluation engine on
// case118: per-scenario cost of flows + base-case check + two full N−1
// screens (true and seen ratings) at the default batch width.
func BenchmarkSweep118(b *testing.B) {
	// Same deterministic workload the sweep gate measures: seeded draws
	// dispatched by ED under attack-inflated seen ratings (see
	// sweepGateScenarios in sweep_gate_test.go).
	pc, scs, _ := sweepGateScenarios(b, "case118", 256, 118)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edattack.SweepEval(pc, scs, edattack.SweepOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(scs)*b.N)/b.Elapsed().Seconds(), "scenarios/s")
}

// BenchmarkACPowerFlow118 measures one Newton–Raphson solve at scale.
func BenchmarkACPowerFlow118(b *testing.B) {
	net, err := edattack.LoadCase("case118")
	if err != nil {
		b.Fatal(err)
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		b.Fatal(err)
	}
	res, err := model.Solve(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acflow.Solve(net, res.P, acflow.Options{MaxIter: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPSimplex measures the simplex on a dense random-but-feasible
// instance comparable to one bilevel relaxation.
func BenchmarkLPSimplex(b *testing.B) {
	n, m := 120, 80
	build := func() *lp.Problem {
		p := lp.NewProblem(n)
		c := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = float64(j%7) - 3
			_ = p.SetBounds(j, 0, 10)
		}
		_ = p.SetObjective(c, false)
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = float64((i*j)%5) - 2
			}
			_, _ = p.AddConstraint(row, lp.LE, float64(10+i%17))
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkMILPKnapsack measures branch and bound on a 16-item knapsack.
func BenchmarkMILPKnapsack(b *testing.B) {
	n := 16
	for i := 0; i < b.N; i++ {
		base := lp.NewProblem(n)
		c := make([]float64, n)
		w := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = float64(3 + (j*7)%11)
			w[j] = float64(2 + (j*5)%9)
		}
		_ = base.SetObjective(c, true)
		_, _ = base.AddConstraint(w, lp.LE, 40)
		p := milp.NewProblem(base)
		for j := 0; j < n; j++ {
			_ = p.SetBinary(j)
		}
		if _, err := milp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMSProcessBuild measures victim-process construction (heap
// population, binary layout) for the PowerWorld profile.
func BenchmarkEMSProcessBuild(b *testing.B) {
	net, err := edattack.LoadCase("case3-fig8")
	if err != nil {
		b.Fatal(err)
	}
	profile, err := edattack.EMSProfileByName("PowerWorld")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edattack.NewEMSProcess(profile, net, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}
