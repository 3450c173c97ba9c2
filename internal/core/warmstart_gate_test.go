package core_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// solverBaselinePath is the solver-work baseline at the repository root,
// replayed by the warm-start and basis-kernel gates.
const solverBaselinePath = "../../BENCH_solver.json"

// gateOpts is the budgeted configuration shared by the warm-start, sparse
// and flight gates and the BENCH_solver.json recorder. The dive is off to
// keep the gates on the branch-and-bound machinery itself: the dive/polish
// discovery layer solves true dispatches rather than KKT relaxations, so
// it would dilute the warm-start and kernel signals these gates exist to
// measure.
func gateOpts() core.Options {
	return core.WithoutDive(core.Options{MaxNodes: 40, RelGap: 1e-3})
}

// caseKnowledge builds attacker knowledge at the static ratings for a named
// benchmark case.
func caseKnowledge(t testing.TB, name string) *core.Knowledge {
	t.Helper()
	return knowledgeFor(t, func() (*grid.Network, error) { return cases.Load(name) })
}

// TestWarmStartIdenticalAttacks is the warm-start correctness gate on
// case9/case30/case57. Two invariants:
//
//   - Within each mode (warm on, warm off), the attack is bit-identical at
//     one worker and at four — warm starting must not break Algorithm 1's
//     worker-count independence.
//   - Across modes, the target line, direction, and gain are bit-identical.
//     The manipulated-rating vector itself may land on an alternate optimal
//     vertex (the warm path reaches the optimum through a different pivot
//     sequence), so it is compared only within a mode.
func TestWarmStartIdenticalAttacks(t *testing.T) {
	for _, name := range []string{"case9", "case30", "case57"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k := caseKnowledge(t, name)
			solve := func(cold bool, workers int) *core.Attack {
				o := gateOpts()
				if cold {
					o = core.WithColdLP(o)
				}
				o.Workers = workers
				att, err := core.FindOptimalAttack(k, o)
				if err != nil {
					t.Fatalf("cold=%v workers=%d: %v", cold, workers, err)
				}
				return att
			}
			warm1, warm4 := solve(false, 1), solve(false, 4)
			cold1, cold4 := solve(true, 1), solve(true, 4)
			sameAttack(t, name+"/warm w1-vs-w4", warm1, warm4)
			sameAttack(t, name+"/cold w1-vs-w4", cold1, cold4)
			if warm1.TargetLine != cold1.TargetLine || warm1.Direction != cold1.Direction {
				t.Errorf("%s: warm target (%d,%+d) vs cold (%d,%+d)",
					name, warm1.TargetLine, warm1.Direction, cold1.TargetLine, cold1.Direction)
			}
			if warm1.GainPct != cold1.GainPct {
				t.Errorf("%s: warm gain %.17g vs cold %.17g", name, warm1.GainPct, cold1.GainPct)
			}
			// Warm starts only exist at child nodes: each row-generation
			// round contributes one (cold) root, so a search that never
			// branches — case9's four subproblems all prune at the root —
			// has nothing to warm-start.
			if warm1.Stats.Nodes > warm1.Stats.Rounds && warm1.Stats.WarmNodes == 0 {
				t.Errorf("%s: search branched (%d nodes over %d rounds) but warm mode never engaged the dual simplex path",
					name, warm1.Stats.Nodes, warm1.Stats.Rounds)
			}
		})
	}
}

// TestWarmStartCase118Speedup is the performance gate: on the budgeted
// case118 attack, warm-started dual simplex must spend at most half the
// pivots of an otherwise identical cold run (same machinery, same budgets,
// same attack — WithColdLP is the only difference), while reproducing the
// recorded gain exactly. Run via make bench-warmstart (and as part of
// make check).
func TestWarmStartCase118Speedup(t *testing.T) {
	if testing.Short() {
		t.Skip("case118 gate skipped in -short mode")
	}
	k := caseKnowledge(t, "case118")
	o := gateOpts()
	o.Workers = 1
	att, err := core.FindOptimalAttack(k, o)
	if err != nil {
		t.Fatal(err)
	}
	if att.Stats == nil {
		t.Fatal("attack carries no SolverStats")
	}
	got := att.Stats.SimplexIterations
	coldAtt, err := core.FindOptimalAttack(k, core.WithColdLP(o))
	if err != nil {
		t.Fatal(err)
	}
	cold := coldAtt.Stats.SimplexIterations
	if coldAtt.GainPct != att.GainPct {
		t.Errorf("cold gain %.17g differs from warm gain %.17g", coldAtt.GainPct, att.GainPct)
	}
	if got*2 > cold {
		t.Errorf("warm run spent %d simplex iterations vs %d cold; want ≥2× reduction", got, cold)
	}
	if att.Stats.WarmNodes == 0 {
		t.Error("warm-start hit count is zero: the dual simplex path never engaged")
	}
	// The recorded baseline must agree with what this binary produces:
	// BENCH_solver.json is refreshed by the same budgets, so equality here
	// means the checked-in numbers are honest.
	base, err := loadSolverBaseline()
	if err != nil {
		t.Fatalf("BENCH_solver.json: %v", err)
	}
	rec, ok := base["case118"]
	if !ok {
		t.Fatal("BENCH_solver.json has no case118 record")
	}
	if rec.GainPct != att.GainPct {
		t.Errorf("gain %.17g differs from recorded %.17g", att.GainPct, rec.GainPct)
	}
	if rec.SimplexIterations != got {
		t.Errorf("simplex iterations %d differ from recorded %d — rerun BENCH_SOLVER=1 go test -run TestRecordSolverBaseline ./internal/core",
			got, rec.SimplexIterations)
	}
	t.Logf("case118 budgeted: %d pivots warm vs %d cold (%.2f×), %d warm nodes, %d fallbacks, gain %.6f%%",
		got, cold, float64(cold)/float64(got), att.Stats.WarmNodes, att.Stats.WarmFallbacks, att.GainPct)
}

// TestWarmStartRecordedBaselines pins the budgeted case9/case30/case57
// attacks to their recorded baselines: gain and pivot totals must match
// BENCH_solver.json exactly (the deterministic Workers=1 schedule).
func TestWarmStartRecordedBaselines(t *testing.T) {
	base, err := loadSolverBaseline()
	if err != nil {
		t.Fatalf("BENCH_solver.json: %v", err)
	}
	for _, name := range []string{"case9", "case30", "case57"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec, ok := base[name]
			if !ok {
				t.Fatalf("BENCH_solver.json has no %s record", name)
			}
			k := caseKnowledge(t, name)
			o := gateOpts()
			o.Workers = 1
			att, err := core.FindOptimalAttack(k, o)
			if err != nil {
				t.Fatal(err)
			}
			if att.GainPct != rec.GainPct {
				t.Errorf("gain %.17g differs from recorded %.17g", att.GainPct, rec.GainPct)
			}
			if att.Stats.SimplexIterations != rec.SimplexIterations {
				t.Errorf("simplex iterations %d differ from recorded %d — rerun BENCH_SOLVER=1 go test -run TestRecordSolverBaseline ./internal/core",
					att.Stats.SimplexIterations, rec.SimplexIterations)
			}
		})
	}
}

type solverRecord struct {
	Case              string  `json:"case"`
	DLRLines          int     `json:"dlr_lines"`
	Subproblems       int     `json:"subproblems"`
	Pruned            int     `json:"pruned"`
	MILPNodes         int     `json:"milp_nodes"`
	SimplexIterations int     `json:"simplex_iterations"`
	RowGenRounds      int     `json:"rowgen_rounds"`
	GainPct           float64 `json:"gain_pct"`
	// Warm-start effectiveness (deterministic, Workers=1): nodes
	// solved by the warm dual simplex path, nodes where the warm
	// basis fell back to a cold solve, the resulting hit rate, and
	// average pivots per branch-and-bound node.
	WarmNodes     int     `json:"warm_nodes"`
	WarmFallbacks int     `json:"warm_fallbacks"`
	WarmHitRate   float64 `json:"warm_hit_rate"`
	PivotsPerNode float64 `json:"pivots_per_node"`
	// Wall times are machine-dependent (unlike the work counts above,
	// which are recorded at Workers=1 and deterministic): sequential
	// is Workers=1, parallel is Workers=GOMAXPROCS. On a single-core
	// recording host the speedup is ~1.
	WallMsSequential float64 `json:"wall_ms_sequential"`
	WallMsParallel   float64 `json:"wall_ms_parallel"`
	ParallelWorkers  int     `json:"parallel_workers"`
	Speedup          float64 `json:"speedup"`
	// Basis-kernel work of the same run: FTRAN/BTRAN solves and basis
	// refactorizations (deterministic); kkt_nnz/kkt_density are the
	// largest and densest LP the run solved.
	FTRANTotal            int64   `json:"lp_ftran_total"`
	BTRANTotal            int64   `json:"lp_btran_total"`
	RefactorizationsTotal int64   `json:"lp_refactorizations_total"`
	KKTNNZ                int     `json:"kkt_nnz"`
	KKTDensity            float64 `json:"kkt_density"`
}

func loadSolverBaseline() (map[string]solverRecord, error) {
	raw, err := os.ReadFile(solverBaselinePath)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Records []solverRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]solverRecord, len(doc.Records))
	for _, r := range doc.Records {
		out[r.Case] = r
	}
	return out, nil
}

// TestRecordSolverBaseline records MILP node counts and simplex iteration
// totals for the budgeted case30/case118 attacks into BENCH_solver.json, so
// future performance PRs have a solver-work baseline to diff against. The
// numbers are deterministic (same budgets as BenchmarkFig5aTimeOfAttack118),
// so the file only changes when solver behavior does. Gated behind
// BENCH_SOLVER=1 because it rewrites a checked-in artifact:
//
//	BENCH_SOLVER=1 go test -run TestRecordSolverBaseline ./internal/core
func TestRecordSolverBaseline(t *testing.T) {
	if os.Getenv("BENCH_SOLVER") == "" {
		t.Skip("set BENCH_SOLVER=1 to (re)record BENCH_solver.json")
	}
	opts := gateOpts()
	var records []solverRecord
	for _, name := range []string{"case9", "case30", "case57", "case118"} {
		k := caseKnowledge(t, name)
		// Deterministic work counts: the sequential reference schedule,
		// with a metrics registry attached so the kernel work counters and
		// the problem shape land in the record.
		reg := telemetry.NewRegistry()
		seqOpts := opts
		seqOpts.Workers = 1
		seqOpts.Metrics = reg
		seqStart := time.Now()
		att, err := core.FindOptimalAttack(k, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		seqWall := time.Since(seqStart)
		if att.Stats == nil {
			t.Fatalf("%s: attack carries no SolverStats", name)
		}
		parOpts := opts
		parOpts.Workers = runtime.GOMAXPROCS(0)
		parStart := time.Now()
		if _, err := core.FindOptimalAttack(k, parOpts); err != nil {
			t.Fatal(err)
		}
		parWall := time.Since(parStart)
		var hitRate, pivotsPerNode float64
		if att.Stats.Nodes > 0 {
			hitRate = float64(att.Stats.WarmNodes) / float64(att.Stats.Nodes)
			pivotsPerNode = float64(att.Stats.SimplexIterations) / float64(att.Stats.Nodes)
		}
		records = append(records, solverRecord{
			Case:              name,
			DLRLines:          len(k.Model.Net.DLRLines()),
			Subproblems:       att.Stats.Subproblems,
			Pruned:            att.Stats.Pruned,
			MILPNodes:         att.Stats.Nodes,
			SimplexIterations: att.Stats.SimplexIterations,
			RowGenRounds:      att.Stats.Rounds,
			GainPct:           att.GainPct,
			WarmNodes:         att.Stats.WarmNodes,
			WarmFallbacks:     att.Stats.WarmFallbacks,
			WarmHitRate:       hitRate,
			PivotsPerNode:     pivotsPerNode,
			WallMsSequential:  float64(seqWall.Microseconds()) / 1000,
			WallMsParallel:    float64(parWall.Microseconds()) / 1000,
			ParallelWorkers:   parOpts.Workers,
			Speedup:           seqWall.Seconds() / parWall.Seconds(),

			FTRANTotal:            reg.Counter("lp_ftran_total").Value(),
			BTRANTotal:            reg.Counter("lp_btran_total").Value(),
			RefactorizationsTotal: reg.Counter("lp_refactorizations_total").Value(),
			KKTNNZ:                int(reg.Gauge("lp_problem_nnz").Value()),
			KKTDensity:            reg.Gauge("lp_problem_density").Value(),
		})
	}
	out, err := json.MarshalIndent(map[string]any{
		"note":    "solver-work baseline for budgeted attacks (MaxNodes 40, RelGap 1e-3, dive off — pure search machinery); work counts (nodes, pivots, warm nodes, and the basis kernels' FTRAN/BTRAN/refactorization counts lp_*) recorded at Workers=1 and deterministic, wall_ms/speedup machine-dependent; regenerate with BENCH_SOLVER=1 go test -run TestRecordSolverBaseline ./internal/core",
		"cpus":    runtime.GOMAXPROCS(0),
		"records": records,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(solverBaselinePath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_solver.json: %s", out)
}
