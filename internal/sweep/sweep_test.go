package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/scada"
	"github.com/edsec/edattack/internal/telemetry"
)

// testNetworks returns the differential-test fleet: the standard cases plus
// deterministic synthetic networks of varying size and meshing (the sparser
// ones route through the CSR kernel, the denser through the blocked GEMM).
func testNetworks(t *testing.T) map[string]*grid.Network {
	t.Helper()
	nets := make(map[string]*grid.Network)
	add := func(name string, n *grid.Network, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nets[name] = n
	}
	n, err := cases.Case9()
	add("case9", n, err)
	n, err = cases.Case30()
	add("case30", n, err)
	n, err = cases.Case57()
	add("case57", n, err)
	n, err = cases.Case118()
	add("case118", n, err)
	n, err = cases.Synthetic(cases.SyntheticOptions{
		Name: "rand24", Buses: 24, Gens: 6, ExtraLines: 10, DLRLines: 3, Seed: 901,
	})
	add("rand24", n, err)
	n, err = cases.Synthetic(cases.SyntheticOptions{
		Name: "rand40sparse", Buses: 40, Gens: 8, ExtraLines: 2, DLRLines: 4, Seed: 77,
	})
	add("rand40sparse", n, err)
	return nets
}

// testScenarios draws a seeded scenario set designed to exercise every
// branch: plausible operating points, tightened true ratings that force
// base-case and N−1 violations, attack-inflated seen ratings that mask
// them, and an unlimited (rating ≤ 0) line.
func testScenarios(t *testing.T, pc *Precomp, count int, seed int64) []Scenario {
	t.Helper()
	mc, err := scada.NewMonteCarlo(pc.Net, scada.MonteCarloConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dispatch := defaultDispatch(pc)
	attack := pc.Net.DLRLines()
	scs := make([]Scenario, 0, count)
	for i := 0; i < count; i++ {
		hour := float64(i%24) + 0.25
		demand, trueR := mc.Draw(hour)
		if i%3 == 1 {
			// Tighten the physical ratings so real overloads appear.
			for l := range trueR {
				trueR[l] *= 0.55
			}
		}
		seenR := make([]float64, len(trueR))
		copy(seenR, trueR)
		if i%2 == 0 {
			// The attacker inflates the DLR feed to hide congestion.
			for _, li := range attack {
				seenR[li] = trueR[li] * 1.5
			}
		}
		if i%5 == 4 && len(trueR) > 0 {
			trueR[0] = 0 // unlimited line: the u ≤ 0 branch
		}
		disp, err := dispatch(demand, seenR)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, Scenario{
			Demand: demand, Dispatch: disp, TrueRatings: trueR, SeenRatings: seenR,
		})
	}
	return scs
}

// TestEvalMatchesOracle is the differential property test: for every
// network, the batched engine must reproduce the sequential
// dcflow.Solve + contingency.Screen oracle bit-for-bit — flows,
// violations, N−1 reports, verdicts — across batch sizes and worker
// counts.
func TestEvalMatchesOracle(t *testing.T) {
	for name, net := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			pc, err := Precompute(net)
			if err != nil {
				t.Fatal(err)
			}
			count := 30
			if len(net.Buses) > 60 {
				count = 12 // the oracle is the slow part at 118 buses
			}
			scs := testScenarios(t, pc, count, 1000+int64(len(net.Buses)))
			oracle, err := Eval(pc, scs, Options{Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			interesting := false
			for i := range oracle {
				if oracle[i].Dangerous || oracle[i].Detected {
					interesting = true
				}
			}
			if !interesting {
				t.Fatalf("oracle produced no violations at all — test exercises nothing")
			}
			for _, batch := range []int{1, 7, 64} {
				for _, workers := range []int{1, 4} {
					got, err := Eval(pc, scs, Options{BatchSize: batch, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], oracle[i]) {
							t.Fatalf("batch=%d workers=%d scenario %d diverges from oracle:\n got  %+v\nwant %+v",
								batch, workers, i, got[i], oracle[i])
						}
					}
				}
			}
		})
	}
}

// TestEvalAllocBudget pins the counts-only N−1 screen with a deterministic
// work counter: one batched Eval of a daemon-shaped case118 sweep (hours
// {0, 12} × magnitudes {0, 0.2} × 16 draws, one 64-scenario batch) may
// allocate at most 1 MiB once the batch scratch pool is warm. Storing a
// record per post-contingency overload allocated ~95 MB here.
func TestEvalAllocBudget(t *testing.T) {
	net, err := cases.Case118()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Precompute(net)
	if err != nil {
		t.Fatal(err)
	}
	scs, _, err := GenScenarios(pc, SurfaceConfig{
		Hours: []float64{0, 12}, Magnitudes: []float64{0, 0.2}, Draws: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(pc, scs, Options{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Eval(pc, scs, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	overloads := 0
	for i := range out {
		overloads += out[i].True.N1.Overloads + out[i].Seen.N1.Overloads
	}
	if overloads == 0 {
		t.Fatal("sweep screened no N−1 overloads — the budget pins nothing")
	}
	const budget = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	if got > budget {
		t.Fatalf("one Eval of %d scenarios (%d N−1 overloads) allocated %d bytes, budget %d",
			len(scs), overloads, got, budget)
	}
	t.Logf("one Eval of %d scenarios (%d N−1 overloads) allocated %d bytes", len(scs), overloads, got)
}

// TestEvalShapeValidation: malformed scenarios are rejected up front.
func TestEvalShapeValidation(t *testing.T) {
	net, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Precompute(net)
	if err != nil {
		t.Fatal(err)
	}
	bad := Scenario{
		Demand:      make([]float64, 2), // want 9
		Dispatch:    make([]float64, len(net.Gens)),
		TrueRatings: make([]float64, len(net.Lines)),
		SeenRatings: make([]float64, len(net.Lines)),
	}
	if _, err := Eval(pc, []Scenario{bad}, Options{}); err == nil {
		t.Fatal("expected shape error")
	}
}

// TestEvalContextCanceled: a done context aborts Eval with a wrapped
// context error instead of a partial outcome slice.
func TestEvalContextCanceled(t *testing.T) {
	net, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Precompute(net)
	if err != nil {
		t.Fatal(err)
	}
	scs := testScenarios(t, pc, 8, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Eval(pc, scs, Options{Workers: 1, Ctx: ctx})
	if out != nil {
		t.Fatal("canceled Eval returned outcomes")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}

	// An open context must not perturb results.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	got, err := Eval(pc, scs, Options{Workers: 1, Ctx: ctx2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Eval(pc, scs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("open context changed Eval outcomes")
	}
}

// TestSurface: the surface is reproducible, batched and sequential agree,
// and the no-attack column can never report attack success.
func TestSurface(t *testing.T) {
	net, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Precompute(net)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SurfaceConfig{
		Hours:      []float64{2, 18.5},
		Magnitudes: []float64{0, 0.35},
		Draws:      16,
		Seed:       99,
	}
	s1, err := RunSurface(pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RunSurface(pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Cells, s2.Cells) {
		t.Fatal("same config and seed produced different surfaces")
	}
	seq := cfg
	seq.Sequential = true
	s3, err := RunSurface(pc, seq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Cells, s3.Cells) {
		t.Fatal("batched and sequential surfaces disagree")
	}
	if len(s1.Cells) != 4 || s1.Scenarios != 64 {
		t.Fatalf("surface shape: %d cells, %d scenarios", len(s1.Cells), s1.Scenarios)
	}
	for _, c := range s1.Cells {
		if c.Magnitude == 0 && c.Success != 0 {
			t.Fatalf("no-attack cell at hour %g reports %d successes", c.Hour, c.Success)
		}
		if c.Success > c.Dangerous {
			t.Fatalf("cell %+v: successes exceed dangerous draws", c)
		}
	}
}

// TestEvalTelemetry: batches and scenarios are counted and flight events
// recorded when sinks are attached.
func TestEvalTelemetry(t *testing.T) {
	net, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Precompute(net)
	if err != nil {
		t.Fatal(err)
	}
	scs := testScenarios(t, pc, 10, 5)
	reg := telemetry.NewRegistry()
	fl := telemetry.NewFlight(64)
	if _, err := Eval(pc, scs, Options{BatchSize: 4, Metrics: reg, Flight: fl}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sweep_scenarios_total"]; got != 10 {
		t.Fatalf("sweep_scenarios_total = %d, want 10", got)
	}
	if got := snap.Counters["sweep_batches_total"]; got != 3 {
		t.Fatalf("sweep_batches_total = %d, want 3", got)
	}
	if fl.Len() != 4 { // 3 batch events + 1 summary
		t.Fatalf("flight recorded %d events, want 4", fl.Len())
	}
}
