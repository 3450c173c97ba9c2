// gridtool's run-observatory subcommands: report (render a solver run
// report), tree (export a B&B search tree), and benchdiff (compare two
// BENCH_solver.json baselines). report and tree either replay artifacts
// dumped by -flight/-metrics/-trace flags or run a budgeted attack
// in-process and report on it directly.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/telemetry"
)

// observedRun is the output of one in-process instrumented attack.
type observedRun struct {
	report *telemetry.Report
	attack *edattack.Attack
}

// runObservedAttack runs Algorithm 1 on caseName with the flight recorder,
// a metrics registry, and an in-memory tracer attached, then fuses the
// three into a report. Workers is pinned to 1 so budgeted runs are
// reproducible (see AttackOptions.Workers).
func runObservedAttack(caseName string, nodes int, gap float64) (*observedRun, error) {
	net, err := edattack.LoadCase(caseName)
	if err != nil {
		return nil, err
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		return nil, err
	}
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		ud[li] = net.Lines[li].RateMVA
	}
	k, err := edattack.NewKnowledge(model, ud)
	if err != nil {
		return nil, err
	}
	reg := edattack.NewMetricsRegistry()
	fl := edattack.NewFlightRecorder(0)
	var traceBuf bytes.Buffer
	tracer := edattack.NewTracer(&traceBuf)
	model.Metrics = reg
	att, err := edattack.FindOptimalAttack(k, edattack.AttackOptions{
		MaxNodes: nodes,
		RelGap:   gap,
		Workers:  1,
		Metrics:  reg,
		Tracer:   tracer,
		Flight:   fl,
	})
	if err != nil {
		return nil, fmt.Errorf("attack on %s: %w", caseName, err)
	}
	spans, err := telemetry.ReadSpans(&traceBuf)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("%s budgeted attack (nodes=%d, gap=%g): U_cap %.4f%% on line %d dir %+d",
		net.Name, nodes, gap, att.GainPct, att.TargetLine, att.Direction)
	return &observedRun{
		report: &telemetry.Report{Title: title, Events: fl.Events(), Metrics: reg.Snapshot(), Spans: spans},
		attack: att,
	}, nil
}

// loadReport assembles a report from dumped artifact files; metricsPath and
// tracePath are optional companions to the flight dump.
func loadReport(flightPath, metricsPath, tracePath string) (*telemetry.Report, error) {
	rep := &telemetry.Report{Title: "Solver run report (" + flightPath + ")"}
	f, err := os.Open(flightPath)
	if err != nil {
		return nil, err
	}
	rec, err := telemetry.ReadFlight(f)
	_ = f.Close()
	if err != nil {
		return nil, err
	}
	rep.Events = rec.Events
	if metricsPath != "" {
		raw, err := os.ReadFile(metricsPath)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &rep.Metrics); err != nil {
			return nil, fmt.Errorf("metrics %s: %w", metricsPath, err)
		}
	}
	if tracePath != "" {
		tf, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		rep.Spans, err = telemetry.ReadSpans(tf)
		_ = tf.Close()
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// openOutput returns the -o destination (stdout when empty) and a closer.
func openOutput(path string) (io.Writer, func() error, error) {
	if path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// reportCmd implements `gridtool report`: run (or load) an instrumented
// solve and render the Markdown/HTML run report.
func reportCmd(args []string) error {
	fs := flag.NewFlagSet("gridtool report", flag.ContinueOnError)
	caseName := fs.String("case", "case118", "benchmark case to run an instrumented budgeted attack on")
	nodes := fs.Int("nodes", 40, "branch-and-bound node budget per subproblem")
	gap := fs.Float64("gap", 1e-3, "relative optimality gap")
	flightPath := fs.String("flight", "", "render from this flight dump instead of running an attack")
	metricsPath := fs.String("metrics", "", "metrics snapshot accompanying -flight")
	tracePath := fs.String("trace", "", "JSONL span trace accompanying -flight")
	htmlOut := fs.Bool("html", false, "render HTML instead of Markdown")
	outPath := fs.String("o", "", "write the report here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var rep *telemetry.Report
	if *flightPath != "" {
		r, err := loadReport(*flightPath, *metricsPath, *tracePath)
		if err != nil {
			return err
		}
		rep = r
	} else {
		run, err := runObservedAttack(*caseName, *nodes, *gap)
		if err != nil {
			return err
		}
		rep = run.report
	}
	out, closeOut, err := openOutput(*outPath)
	if err != nil {
		return err
	}
	if *htmlOut {
		err = rep.WriteHTML(out)
	} else {
		err = rep.WriteMarkdown(out)
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	return err
}

// treeCmd implements `gridtool tree`: export one B&B search tree as DOT
// (default) or JSON.
func treeCmd(args []string) error {
	fs := flag.NewFlagSet("gridtool tree", flag.ContinueOnError)
	caseName := fs.String("case", "case118", "benchmark case to run an instrumented budgeted attack on")
	nodes := fs.Int("nodes", 40, "branch-and-bound node budget per subproblem")
	gap := fs.Float64("gap", 1e-3, "relative optimality gap")
	flightPath := fs.String("flight", "", "read trees from this flight dump instead of running an attack")
	target := fs.Int("target", -1, "select the tree of this target line (-1 = largest tree)")
	dir := fs.Int("dir", 0, "with -target: manipulation direction (+1/-1, 0 = either)")
	round := fs.Int("round", 0, "with -target: row-generation round (0 = any)")
	asJSON := fs.Bool("json", false, "emit JSON instead of Graphviz DOT")
	outPath := fs.String("o", "", "write the tree here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var events []telemetry.FlightEvent
	if *flightPath != "" {
		f, err := os.Open(*flightPath)
		if err != nil {
			return err
		}
		rec, err := telemetry.ReadFlight(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		events = rec.Events
	} else {
		run, err := runObservedAttack(*caseName, *nodes, *gap)
		if err != nil {
			return err
		}
		events = run.report.Events
	}
	trees := telemetry.FlightTrees(events)
	if len(trees) == 0 {
		return fmt.Errorf("no branch-and-bound nodes in the flight record")
	}
	tree := trees[0]
	if *target >= 0 {
		tree = nil
		for _, t := range trees {
			if t.Target != *target {
				continue
			}
			if *dir != 0 && t.Dir != *dir {
				continue
			}
			if *round != 0 && t.Round != *round {
				continue
			}
			tree = t
			break
		}
		if tree == nil {
			return fmt.Errorf("no tree recorded for target %d (dir %d, round %d)", *target, *dir, *round)
		}
	}
	out, closeOut, err := openOutput(*outPath)
	if err != nil {
		return err
	}
	if *asJSON {
		err = tree.WriteJSON(out)
	} else {
		err = tree.WriteDOT(out)
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	return err
}

// benchRecord mirrors the per-case record of BENCH_solver.json, restricted
// to the fields benchdiff compares.
type benchRecord struct {
	Case              string  `json:"case"`
	GainPct           float64 `json:"gain_pct"`
	MILPNodes         int     `json:"milp_nodes"`
	SimplexIterations int     `json:"simplex_iterations"`
	RowgenRounds      int     `json:"rowgen_rounds"`
	WarmHitRate       float64 `json:"warm_hit_rate"`
	WallMsSequential  float64 `json:"wall_ms_sequential"`
	FTRANTotal        int64   `json:"lp_ftran_total"`
}

// milpBenchRecord mirrors the per-case record of BENCH_milp.json: the MILP
// scaling baseline recorded by TestRecordMILPBaseline (gap closed, node and
// pivot totals, wall clock).
type milpBenchRecord struct {
	Case              string  `json:"case"`
	GainPct           float64 `json:"gain_pct"`
	BestBoundPct      float64 `json:"best_bound_pct"`
	Gap               float64 `json:"gap"`
	Exact             bool    `json:"exact"`
	MILPNodes         int     `json:"milp_nodes"`
	SimplexIterations int     `json:"simplex_iterations"`
	WallMs            float64 `json:"wall_ms"`
}

// serveBenchRecord mirrors the per-case record of BENCH_serve.json: the
// attack-as-a-service latency and allocation baseline recorded by
// TestRecordServeBaseline. The allocation fields (allocs per warm evaluate,
// marginal allocs per branch-and-bound node, live heap after the
// measurement load) are lower-is-better; attack_rps is the closed-loop
// concurrent attack throughput and higher-is-better.
type serveBenchRecord struct {
	Case            string  `json:"case"`
	ColdAttackMS    float64 `json:"cold_attack_ms"`
	WarmAttackP50MS float64 `json:"warm_attack_p50_ms"`
	WarmSpeedup     float64 `json:"warm_speedup"`
	WarmHitRate     float64 `json:"warm_hit_rate"`
	AttackRPS       float64 `json:"attack_rps"`
	AllocsPerSolve  float64 `json:"allocs_per_solve"`
	AllocsPerNode   float64 `json:"allocs_per_node"`
	HeapLiveBytes   float64 `json:"heap_live_bytes"`
}

// sweepBenchRecord mirrors the per-case record of BENCH_sweep.json: the
// batched scenario-evaluation throughput baseline.
type sweepBenchRecord struct {
	Case            string  `json:"case"`
	Scenarios       int     `json:"scenarios"`
	Batch           int     `json:"batch"`
	Workers         int     `json:"workers"`
	N1Outages       int     `json:"n1_outages"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	WallMs          float64 `json:"wall_ms"`
	PrecomputeMs    float64 `json:"precompute_ms"`
}

func loadBenchRaw(path string) ([]json.RawMessage, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Records, nil
}

// benchSchema sniffs which baseline schema a records file carries: sweep
// baselines carry scenarios_per_sec, MILP scaling baselines carry
// best_bound_pct, serving baselines carry warm_attack_p50_ms, and solver
// baselines carry none of those.
func benchSchema(records []json.RawMessage) string {
	for _, r := range records {
		var probe map[string]json.RawMessage
		if json.Unmarshal(r, &probe) != nil {
			continue
		}
		if _, ok := probe["scenarios_per_sec"]; ok {
			return "sweep"
		}
		if _, ok := probe["best_bound_pct"]; ok {
			return "milp"
		}
		if _, ok := probe["warm_attack_p50_ms"]; ok {
			return "serve"
		}
		return "solver"
	}
	return "solver"
}

func decodeBench[T any](records []json.RawMessage, key func(T) string) (map[string]T, []string, error) {
	out := make(map[string]T, len(records))
	var order []string
	for _, raw := range records {
		var r T
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, nil, err
		}
		out[key(r)] = r
		order = append(order, key(r))
	}
	return out, order, nil
}

// benchDiffer accumulates per-metric comparisons and the regression count.
type benchDiffer struct {
	regressions int
}

func (d *benchDiffer) pct(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (newV - oldV) / oldV
}

// check flags growth beyond threshold as a regression (exact metrics must
// match bitwise). higherIsBetter reverses the direction — throughput
// numbers regress when they drop.
func (d *benchDiffer) check(label string, oldV, newV, threshold float64, exact, higherIsBetter bool) {
	delta := d.pct(oldV, newV)
	bad, good := delta > threshold, delta < -threshold
	if higherIsBetter {
		bad, good = delta < -threshold, delta > threshold
	}
	mark := ""
	switch {
	case exact && oldV != newV:
		mark = "  ** REGRESSION (must match exactly)"
		d.regressions++
	case !exact && bad:
		mark = fmt.Sprintf("  ** REGRESSION (beyond %.0f%%)", threshold)
		d.regressions++
	case !exact && good:
		mark = "  (improvement)"
	}
	fmt.Printf("  %-26s %14.6g -> %-14.6g %+7.1f%%%s\n", label, oldV, newV, delta, mark)
}

// diffCases walks the new baseline in order, diffing each case against the
// old one via perCase and reporting added/dropped cases.
func diffCases[T any](d *benchDiffer, oldRecs, newRecs map[string]T, newOrder []string, perCase func(or, nr T)) {
	for _, name := range newOrder {
		nr := newRecs[name]
		or, ok := oldRecs[name]
		if !ok {
			fmt.Printf("%-8s new case (no baseline)\n", name)
			continue
		}
		fmt.Printf("%s:\n", name)
		perCase(or, nr)
	}
	var dropped []string
	for name := range oldRecs {
		if _, ok := newRecs[name]; !ok {
			dropped = append(dropped, name)
		}
	}
	sort.Strings(dropped)
	for _, name := range dropped {
		fmt.Printf("%-8s dropped from new baseline\n", name)
	}
}

// benchdiffCmd implements `gridtool benchdiff old.json new.json`: compare
// two benchmark baselines and flag regressions. -bench selects the schema
// (BENCH_solver.json or BENCH_sweep.json); auto sniffs it from the
// records. For solver baselines, deterministic work counters (nodes,
// pivots, FTRANs) regress when they grow beyond -tol percent, gains must
// match bitwise, and wall-clock changes are flagged only beyond a wider
// machine-noise threshold. For sweep baselines, scenario counts and N−1
// coverage must match exactly and throughput regresses when it drops
// beyond the wall-clock threshold.
func benchdiffCmd(args []string) error {
	fs := flag.NewFlagSet("gridtool benchdiff", flag.ContinueOnError)
	tol := fs.Float64("tol", 10, "regression threshold for work counters, in percent")
	wallTol := fs.Float64("walltol", 25, "regression threshold for wall-clock numbers, in percent")
	bench := fs.String("bench", "auto", "baseline schema: auto, solver, sweep, milp, or serve")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: gridtool benchdiff [-tol pct] [-bench solver|sweep|milp|serve] old.json new.json")
	}
	oldRaw, err := loadBenchRaw(fs.Arg(0))
	if err != nil {
		return err
	}
	newRaw, err := loadBenchRaw(fs.Arg(1))
	if err != nil {
		return err
	}
	schema := *bench
	if schema == "auto" {
		schema = benchSchema(newRaw)
	}
	// Even with -bench forced, refuse files whose records carry the other
	// schema's fields — decoding them would silently compare zeros.
	for i, raw := range [][]json.RawMessage{oldRaw, newRaw} {
		if got := benchSchema(raw); got != schema {
			return fmt.Errorf("schema mismatch: %s holds %s records, diffing as %s", fs.Arg(i), got, schema)
		}
	}

	d := &benchDiffer{}
	switch schema {
	case "solver":
		key := func(r benchRecord) string { return r.Case }
		oldRecs, _, err := decodeBench(oldRaw, key)
		if err != nil {
			return err
		}
		newRecs, newOrder, err := decodeBench(newRaw, key)
		if err != nil {
			return err
		}
		diffCases(d, oldRecs, newRecs, newOrder, func(or, nr benchRecord) {
			d.check("gain_pct", or.GainPct, nr.GainPct, 0, true, false)
			d.check("milp_nodes", float64(or.MILPNodes), float64(nr.MILPNodes), *tol, false, false)
			d.check("simplex_iterations", float64(or.SimplexIterations), float64(nr.SimplexIterations), *tol, false, false)
			d.check("lp_ftran_total", float64(or.FTRANTotal), float64(nr.FTRANTotal), *tol, false, false)
			d.check("rowgen_rounds", float64(or.RowgenRounds), float64(nr.RowgenRounds), *tol, false, false)
			d.check("wall_ms_sequential", or.WallMsSequential, nr.WallMsSequential, *wallTol, false, false)
		})
	case "milp":
		key := func(r milpBenchRecord) string { return r.Case }
		oldRecs, _, err := decodeBench(oldRaw, key)
		if err != nil {
			return err
		}
		newRecs, newOrder, err := decodeBench(newRaw, key)
		if err != nil {
			return err
		}
		diffCases(d, oldRecs, newRecs, newOrder, func(or, nr milpBenchRecord) {
			d.check("gain_pct", or.GainPct, nr.GainPct, 0, true, false)
			d.check("best_bound_pct", or.BestBoundPct, nr.BestBoundPct, *tol, false, false)
			// The closed gap is lower-is-better: a grown gap means the
			// search stopped proving optimality within the budget.
			d.check("gap", or.Gap, nr.Gap, *tol, false, false)
			d.check("milp_nodes", float64(or.MILPNodes), float64(nr.MILPNodes), *tol, false, false)
			d.check("simplex_iterations", float64(or.SimplexIterations), float64(nr.SimplexIterations), *tol, false, false)
			d.check("wall_ms", or.WallMs, nr.WallMs, *wallTol, false, false)
			if or.Exact && !nr.Exact {
				fmt.Printf("  %-26s %14v -> %-14v          ** REGRESSION (lost proven optimality)\n",
					"exact", or.Exact, nr.Exact)
				d.regressions++
			}
		})
	case "sweep":
		key := func(r sweepBenchRecord) string { return r.Case }
		oldRecs, _, err := decodeBench(oldRaw, key)
		if err != nil {
			return err
		}
		newRecs, newOrder, err := decodeBench(newRaw, key)
		if err != nil {
			return err
		}
		diffCases(d, oldRecs, newRecs, newOrder, func(or, nr sweepBenchRecord) {
			d.check("scenarios", float64(or.Scenarios), float64(nr.Scenarios), 0, true, false)
			d.check("n1_outages", float64(or.N1Outages), float64(nr.N1Outages), 0, true, false)
			d.check("scenarios_per_sec", or.ScenariosPerSec, nr.ScenariosPerSec, *wallTol, false, true)
			d.check("wall_ms", or.WallMs, nr.WallMs, *wallTol, false, false)
			d.check("precompute_ms", or.PrecomputeMs, nr.PrecomputeMs, *wallTol, false, false)
		})
	case "serve":
		key := func(r serveBenchRecord) string { return r.Case }
		oldRecs, _, err := decodeBench(oldRaw, key)
		if err != nil {
			return err
		}
		newRecs, newOrder, err := decodeBench(newRaw, key)
		if err != nil {
			return err
		}
		diffCases(d, oldRecs, newRecs, newOrder, func(or, nr serveBenchRecord) {
			// Latencies regress when they grow; speedup, hit rate, and
			// throughput regress when they drop.
			d.check("cold_attack_ms", or.ColdAttackMS, nr.ColdAttackMS, *wallTol, false, false)
			d.check("warm_attack_p50_ms", or.WarmAttackP50MS, nr.WarmAttackP50MS, *wallTol, false, false)
			d.check("warm_speedup", or.WarmSpeedup, nr.WarmSpeedup, *wallTol, false, true)
			d.check("warm_hit_rate", or.WarmHitRate, nr.WarmHitRate, *tol, false, true)
			d.check("attack_rps", or.AttackRPS, nr.AttackRPS, *wallTol, false, true)
			// Allocation counts are near machine-independent, so the
			// tighter work-counter threshold applies; growth is regression.
			d.check("allocs_per_solve", or.AllocsPerSolve, nr.AllocsPerSolve, *tol, false, false)
			d.check("allocs_per_node", or.AllocsPerNode, nr.AllocsPerNode, *tol, false, false)
			d.check("heap_live_bytes", or.HeapLiveBytes, nr.HeapLiveBytes, *wallTol, false, false)
		})
	default:
		return fmt.Errorf("unknown -bench schema %q (want auto, solver, sweep, or milp, or serve)", schema)
	}
	if d.regressions > 0 {
		return fmt.Errorf("%d regression(s) against %s", d.regressions, fs.Arg(0))
	}
	fmt.Println("no regressions")
	return nil
}
