package edattack_test

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	edattack "github.com/edsec/edattack"
)

// milpGateOpts is the production attack configuration: the default
// options, with the depth-first search and the dive/polish discovery layer.
// The small IEEE systems run unbudgeted — the search must close them to
// proven optimality — while case118 and the synthetic interconnections get
// the budgeted node cap the other gates use (their KKT relaxation bound is
// stuck at the trivial rating-band cap, so more nodes buy no proof; see
// TestMILPGate). This is the configuration the BENCH_milp.json scaling
// baseline records and the MILP gate replays; the solver gates
// (warmstart_gate_test.go, sparse_gate_test.go) deliberately strip it
// down to measure the search machinery in isolation.
func milpGateOpts(name string) edattack.AttackOptions {
	var o edattack.AttackOptions
	switch name {
	case "case118", "grow300", "grow1000":
		o.MaxNodes = 40
		o.RelGap = 1e-3
	}
	return o
}

// milpGateCases are the cases the MILP scaling baseline covers, smallest
// to largest: the IEEE systems plus the deterministic 300-bus synthetic
// interconnection from the growgrid generator. grow1000 solves too (see
// BenchmarkMILPScale) but is left out of the recorded gate to keep make
// check fast.
var milpGateCases = []string{"case9", "case30", "case57", "case118", "grow300"}

// milpRecord mirrors gridtool benchdiff's milpBenchRecord: one per-case
// row of BENCH_milp.json.
type milpRecord struct {
	Case              string  `json:"case"`
	GainPct           float64 `json:"gain_pct"`
	BestBoundPct      float64 `json:"best_bound_pct"`
	Gap               float64 `json:"gap"`
	Exact             bool    `json:"exact"`
	MILPNodes         int     `json:"milp_nodes"`
	SimplexIterations int     `json:"simplex_iterations"`
	WallMs            float64 `json:"wall_ms"`
}

func loadMILPBaseline() (map[string]milpRecord, error) {
	raw, err := os.ReadFile("BENCH_milp.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Records []milpRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]milpRecord, len(doc.Records))
	for _, r := range doc.Records {
		out[r.Case] = r
	}
	return out, nil
}

// solveMILPCase runs the production attack and returns it with its wall
// time.
func solveMILPCase(tb testing.TB, name string, o edattack.AttackOptions) (*edattack.Attack, time.Duration) {
	tb.Helper()
	k := knowledgeCase(tb, name)
	start := time.Now()
	att, err := edattack.FindOptimalAttack(k, o)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	wall := time.Since(start)
	if att.Stats == nil {
		tb.Fatalf("%s: attack carries no SolverStats", name)
	}
	return att, wall
}

// TestRecordMILPBaseline re-records BENCH_milp.json. Run via
// BENCH_MILP=1 go test -run TestRecordMILPBaseline . (make bench-milp-baseline).
func TestRecordMILPBaseline(t *testing.T) {
	if os.Getenv("BENCH_MILP") == "" {
		t.Skip("set BENCH_MILP=1 to record the MILP scaling baseline")
	}
	var records []milpRecord
	for _, name := range milpGateCases {
		o := milpGateOpts(name)
		o.Workers = 1
		att, wall := solveMILPCase(t, name, o)
		if math.IsInf(att.Stats.BestBoundPct, 0) || math.IsNaN(att.Stats.BestBoundPct) {
			t.Fatalf("%s: non-finite best bound %v — the search proved nothing; widen the budget", name, att.Stats.BestBoundPct)
		}
		records = append(records, milpRecord{
			Case:              name,
			GainPct:           att.GainPct,
			BestBoundPct:      att.Stats.BestBoundPct,
			Gap:               att.Stats.Gap,
			Exact:             att.Exact,
			MILPNodes:         att.Stats.Nodes,
			SimplexIterations: att.Stats.SimplexIterations,
			WallMs:            float64(wall.Microseconds()) / 1000,
		})
		t.Logf("%s: gain %.9f%% bound %.9f%% gap %.3g exact=%v nodes=%d wall=%s",
			name, att.GainPct, att.Stats.BestBoundPct, att.Stats.Gap, att.Exact,
			att.Stats.Nodes, wall)
	}
	out, err := json.MarshalIndent(map[string]any{
		"note":    "MILP scaling baseline for the default attack options (depth-first search, dive/polish on; case118 and grow300 at MaxNodes 40, RelGap 1e-3); gain/bound/gap/node/pivot counts recorded at Workers=1 and deterministic, wall_ms machine-dependent; regenerate with BENCH_MILP=1 go test -run TestRecordMILPBaseline (make bench-milp-baseline); compare with gridtool benchdiff",
		"cpus":    runtime.GOMAXPROCS(0),
		"records": records,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_milp.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_milp.json: %s", out)
}

// TestMILPGate is the MILP scaling gate (make bench-milp, part of make
// check): every case in BENCH_milp.json must reproduce its recorded gain,
// proven bound, gap, and deterministic work counts bit-exactly, make at
// most two cold LP solves with warm-start fallbacks on at most 1% of its
// nodes, and the small IEEE systems must close to proven optimality (Exact
// with zero gap) inside the same node budget that leaves case118 and
// grow300 truncated. The KKT relaxation's proven bound on the truncated cases is
// the trivial rating-band cap — the recorded gap documents that honestly
// rather than claiming optimality the search did not prove.
func TestMILPGate(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP scaling gate skipped in -short mode")
	}
	base, err := loadMILPBaseline()
	if err != nil {
		t.Fatalf("BENCH_milp.json: %v", err)
	}
	for _, name := range milpGateCases {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec, ok := base[name]
			if !ok {
				t.Fatalf("BENCH_milp.json has no %s record", name)
			}
			o := milpGateOpts(name)
			o.Workers = 1
			reg := edattack.NewMetricsRegistry()
			o.Metrics = reg
			att, wall := solveMILPCase(t, name, o)
			// LP work inside the attack: one shared phase I for the
			// round-1 roots, every other relaxation warm. Infeasible nodes
			// are Farkas-certified warm, not re-solved cold.
			lpCold := reg.Counter("lp_solves_total").Value() - reg.Counter("lp_warm_solves_total").Value()
			if lpCold > 2 {
				t.Errorf("%d cold LP solves, want at most 2", lpCold)
			}
			if fb := reg.Counter("lp_warm_fallbacks_total").Value(); 100*fb > int64(att.Stats.Nodes) {
				t.Errorf("%d warm-start fallbacks over %d nodes, want at most 1%%", fb, att.Stats.Nodes)
			}
			if att.GainPct != rec.GainPct {
				t.Errorf("gain %.17g differs from recorded %.17g", att.GainPct, rec.GainPct)
			}
			if att.Stats.BestBoundPct != rec.BestBoundPct {
				t.Errorf("best bound %.17g differs from recorded %.17g", att.Stats.BestBoundPct, rec.BestBoundPct)
			}
			if att.Stats.Gap != rec.Gap {
				t.Errorf("gap %.17g differs from recorded %.17g", att.Stats.Gap, rec.Gap)
			}
			if att.Exact != rec.Exact {
				t.Errorf("exact=%v differs from recorded %v", att.Exact, rec.Exact)
			}
			if att.Stats.Nodes != rec.MILPNodes {
				t.Errorf("nodes %d differ from recorded %d — rerun make bench-milp-baseline", att.Stats.Nodes, rec.MILPNodes)
			}
			if att.Stats.SimplexIterations != rec.SimplexIterations {
				t.Errorf("simplex iterations %d differ from recorded %d — rerun make bench-milp-baseline",
					att.Stats.SimplexIterations, rec.SimplexIterations)
			}
			switch name {
			case "case9", "case30", "case57":
				if !att.Exact || att.Stats.Gap != 0 {
					t.Errorf("small case must close to proven optimality, got exact=%v gap=%.3g",
						att.Exact, att.Stats.Gap)
				}
			default:
				if att.GainPct <= 0 {
					t.Errorf("budgeted %s attack found no positive gain", name)
				}
			}
			t.Logf("%s: gain %.9f%% bound %.9f%% gap %.3g exact=%v nodes=%d pivots=%d wall=%s",
				name, att.GainPct, att.Stats.BestBoundPct, att.Stats.Gap, att.Exact,
				att.Stats.Nodes, att.Stats.SimplexIterations, wall)
		})
	}
}

// TestMILPGateGrow300Deterministic pins the end-to-end determinism of the
// budgeted synthetic-grid attack: the grow300 result must be bit-identical
// — target, direction, gain, every manipulated rating — across worker
// counts. The dive/polish discovery layer is instance-pure and the
// per-subproblem searches either converge or fall back to the dive, so the
// worker schedule cannot move the answer.
func TestMILPGateGrow300Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("grow300 determinism gate skipped in -short mode")
	}
	k := knowledgeCase(t, "grow300")
	solve := func(workers int) *edattack.Attack {
		o := milpGateOpts("grow300")
		o.Workers = workers
		att, err := edattack.FindOptimalAttack(k, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return att
	}
	ref := solve(1)
	sameAttack(t, "grow300 w1-vs-w4", ref, solve(4))
	t.Logf("grow300 budgeted: target %d dir %+d gain %.9f%%, identical across workers",
		ref.TargetLine, ref.Direction, ref.GainPct)
}

// BenchmarkMILPScale measures the production budgeted attack wall time
// across system sizes, IEEE 118 through the synthetic 300- and 1000-bus
// interconnections. Run via go test -bench MILPScale -run - .
func BenchmarkMILPScale(b *testing.B) {
	for _, name := range []string{"case57", "case118", "grow300", "grow1000"} {
		name := name
		b.Run(name, func(b *testing.B) {
			k := knowledgeCase(b, name)
			o := milpGateOpts(name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				att, err := edattack.FindOptimalAttack(k, o)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(att.GainPct, "gain%")
			}
		})
	}
}
