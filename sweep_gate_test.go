package edattack_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/gatetest"
	"github.com/edsec/edattack/internal/sweep"
)

// sweepBaselineRecord mirrors one BENCH_sweep.json record.
type sweepBaselineRecord struct {
	Case            string  `json:"case"`
	Scenarios       int     `json:"scenarios"`
	Batch           int     `json:"batch"`
	Workers         int     `json:"workers"`
	N1Outages       int     `json:"n1_outages"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	WallMs          float64 `json:"wall_ms"`
	PrecomputeMs    float64 `json:"precompute_ms"`
}

func loadSweepBaseline() (map[string]sweepBaselineRecord, error) {
	raw, err := os.ReadFile("BENCH_sweep.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Records []sweepBaselineRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]sweepBaselineRecord, len(doc.Records))
	for _, r := range doc.Records {
		out[r.Case] = r
	}
	return out, nil
}

// sweepGateScenarios builds the gate's deterministic case118 workload:
// seeded Monte-Carlo operating points, each dispatched by the operator's
// ED under attack-inflated seen ratings (the realistic mix of clean and
// congested batches), sharing the dispatch model's PTDF with the sweep
// precomputation.
func sweepGateScenarios(tb testing.TB, caseName string, count int, seed int64) (*edattack.SweepPrecomp, []edattack.SweepScenario, time.Duration) {
	tb.Helper()
	net, err := edattack.LoadCase(caseName)
	if err != nil {
		tb.Fatal(err)
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		tb.Fatal(err)
	}
	preStart := time.Now()
	pc, err := edattack.SweepPrecomputeFromPTDF(net, model.PTDF())
	if err != nil {
		tb.Fatal(err)
	}
	preWall := time.Since(preStart)
	mc, err := edattack.NewMonteCarlo(net, edattack.MonteCarloConfig{Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	scs := make([]edattack.SweepScenario, count)
	for i := range scs {
		demand, trueR := mc.Draw(float64(i%24) + 0.5)
		seenR := make([]float64, len(trueR))
		copy(seenR, trueR)
		for _, li := range net.DLRLines() {
			v := trueR[li] * 1.3
			if max := net.Lines[li].DLRMax; v > max {
				v = max
			}
			seenR[li] = v
		}
		if err := model.SetDemands(demand); err != nil {
			tb.Fatal(err)
		}
		res, err := model.Solve(seenR)
		if err != nil {
			tb.Fatalf("scenario %d dispatch: %v", i, err)
		}
		scs[i] = edattack.SweepScenario{Demand: demand, Dispatch: res.P, TrueRatings: trueR, SeenRatings: seenR}
	}
	return pc, scs, preWall
}

// measureSweep runs the batched evaluator repeatedly and returns the
// outcomes plus the best (least noisy) wall time.
func measureSweep(tb testing.TB, pc *edattack.SweepPrecomp, scs []edattack.SweepScenario, runs int) ([]edattack.SweepOutcome, time.Duration) {
	tb.Helper()
	var best time.Duration
	var outcomes []edattack.SweepOutcome
	for r := 0; r < runs; r++ {
		start := time.Now()
		out, err := edattack.SweepEval(pc, scs, edattack.SweepOptions{Workers: 1})
		if err != nil {
			tb.Fatal(err)
		}
		wall := time.Since(start)
		if outcomes == nil || wall < best {
			best = wall
		}
		outcomes = out
	}
	return outcomes, best
}

// measureSweepAtRef times runs single sweeps, each between two timings of
// the speed reference, and returns the outcomes and the median throughput
// at reference speed: each run's scenarios/s divided by the machine's
// speed around it (the geometric mean of nominal over measured kernel
// times, below 1 in a slow spell).
func measureSweepAtRef(tb testing.TB, pc *edattack.SweepPrecomp, scs []edattack.SweepScenario, runs int) ([]edattack.SweepOutcome, float64) {
	tb.Helper()
	ref := gatetest.NewSpeedRef()
	var outcomes []edattack.SweepOutcome
	rates := make([]float64, runs)
	for r := range rates {
		var wall time.Duration
		speed := ref.Around(func() { outcomes, wall = measureSweep(tb, pc, scs, 1) })
		rates[r] = float64(len(scs)) / wall.Seconds() / speed
	}
	sort.Float64s(rates)
	return outcomes, rates[runs/2]
}

// TestSweepGate is the batched scenario-evaluation performance gate on
// case118. It fails when:
//
//   - BENCH_sweep.json is missing (run make bench-sweep-baseline);
//   - the recorded throughput is below the 10,000 N−1-screened
//     scenarios/s acceptance floor;
//   - the live throughput at reference speed falls below half the recorded
//     baseline — a noise-tolerant backstop (matching the flight gate's
//     convention). Each live sweep is scaled by a machine-speed reference
//     timed around it (see gatetest.SpeedRef), so a slow spell of the
//     machine does not read as a regression; the strict ±25% wall band applies to
//     recorded-vs-recorded comparisons via gridtool benchdiff;
//   - the batched outcomes stop matching the per-scenario oracle.
func TestSweepGate(t *testing.T) {
	if testing.Short() {
		t.Skip("case118 sweep gate skipped in -short mode")
	}
	base, err := loadSweepBaseline()
	if err != nil {
		t.Fatalf("BENCH_sweep.json: %v — record it with make bench-sweep-baseline", err)
	}
	rec, ok := base["case118"]
	if !ok {
		t.Fatal("BENCH_sweep.json has no case118 record")
	}
	if rec.ScenariosPerSec < 10000 {
		t.Errorf("recorded throughput %.0f scenarios/s is below the 10,000/s acceptance floor — rerun make bench-sweep-baseline on a quiet machine",
			rec.ScenariosPerSec)
	}
	pc, scs, _ := sweepGateScenarios(t, "case118", rec.Scenarios, 118)
	if got := len(pc.Net.Lines) - pc.Islanding; got != rec.N1Outages {
		t.Errorf("screening %d non-islanding outages, recorded %d — rerun make bench-sweep-baseline", got, rec.N1Outages)
	}
	outcomes, live := measureSweepAtRef(t, pc, scs, 11)

	// Differential spot check: the full property test lives in
	// internal/sweep; here a handful of scenarios re-run through the
	// oracle keeps the gate honest end to end.
	oracle, err := edattack.SweepEval(pc, scs[:4], edattack.SweepOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range oracle {
		if !reflect.DeepEqual(outcomes[i], oracle[i]) {
			t.Fatalf("scenario %d: batched outcome diverges from the sequential oracle", i)
		}
	}

	if !gatetest.RaceEnabled && live < rec.ScenariosPerSec*0.5 {
		t.Errorf("live throughput %.0f scenarios/s at reference speed is below half the recorded %.0f",
			live, rec.ScenariosPerSec)
	}
	t.Logf("case118: %d scenarios, %.0f scenarios/s live at reference speed (recorded %.0f)",
		len(scs), live, rec.ScenariosPerSec)
}

// TestRecordSweepBaseline records the batched scenario-evaluation
// throughput baseline into BENCH_sweep.json. Gated behind BENCH_SWEEP=1
// because it rewrites a checked-in artifact:
//
//	BENCH_SWEEP=1 go test -run TestRecordSweepBaseline
func TestRecordSweepBaseline(t *testing.T) {
	if os.Getenv("BENCH_SWEEP") == "" {
		t.Skip("set BENCH_SWEEP=1 to (re)record BENCH_sweep.json")
	}
	const count = 256
	var records []sweepBaselineRecord
	for _, name := range []string{"case118"} {
		pc, scs, preWall := sweepGateScenarios(t, name, count, 118)
		_, wall := measureSweep(t, pc, scs, 5)
		_, rate := measureSweepAtRef(t, pc, scs, 11)
		records = append(records, sweepBaselineRecord{
			Case:            name,
			Scenarios:       count,
			Batch:           sweep.DefaultBatchSize,
			Workers:         1,
			N1Outages:       len(pc.Net.Lines) - pc.Islanding,
			ScenariosPerSec: rate,
			WallMs:          float64(wall.Microseconds()) / 1000,
			PrecomputeMs:    float64(preWall.Microseconds()) / 1000,
		})
	}
	out, err := json.MarshalIndent(map[string]any{
		"note":    "batched scenario-sweep throughput baseline (ED operating points, attack-inflated seen ratings, both rating views N-1 screened, Workers=1); scenarios_per_sec is the median of 11 runs at reference speed (each scaled by a sort/LU reference timed around it), wall_ms the best of 5 raw runs and machine-dependent; regenerate with BENCH_SWEEP=1 go test -run TestRecordSweepBaseline",
		"cpus":    runtime.GOMAXPROCS(0),
		"records": records,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sweep.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println(string(out))
}
