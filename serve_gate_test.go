package edattack_test

import (
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/gatetest"
)

// TestServeGate is the attack-as-a-service regression gate on case118. It
// fails when:
//
//   - BENCH_serve.json is missing (run make bench-serve-baseline);
//   - the warm repeat makes more than half the cold request's dispatch
//     solves (replayed in process; its LP pivots must match the daemon's);
//   - the served attack is not bit-identical to a one-shot library run
//     with the same budgets (the CLI path);
//   - warm repeats diverge from the cold answer, or the live warm p50
//     fails a noise-tolerant half of the 2× floor;
//   - a deadline-cancelled request overshoots its deadline by more than
//     100ms, or the daemon leaks goroutines after Close.
func TestServeGate(t *testing.T) {
	if testing.Short() {
		t.Skip("case118 serve gate skipped in -short mode")
	}
	base, err := gatetest.LoadServeBaseline("BENCH_serve.json")
	if err != nil {
		t.Fatalf("BENCH_serve.json: %v — record it with make bench-serve-baseline", err)
	}
	if _, ok := base["case118"]; !ok {
		t.Fatal("BENCH_serve.json has no case118 record")
	}

	before := runtime.NumGoroutine()
	m := gatetest.MeasureServe(t, "case118", 3, 2, 2)

	// Bit-identical to the one-shot library path with the same budgets —
	// what the edattack CLI runs.
	k := knowledgeCase(t, "case118")
	want, err := edattack.FindOptimalAttack(k, edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Gain != want.GainPct || m.TargetLine != want.TargetLine {
		t.Errorf("served attack gain %.17g target %d, one-shot run %.17g %d",
			m.Gain, m.TargetLine, want.GainPct, want.TargetLine)
	}
	if len(m.DLR) != len(want.DLR) {
		t.Errorf("served DLR has %d lines, one-shot %d", len(m.DLR), len(want.DLR))
	} else {
		for li, v := range want.DLR {
			if m.DLR[li] != v {
				t.Errorf("served DLR[%d] = %.17g, one-shot %.17g", li, m.DLR[li], v)
			}
		}
	}

	speedup := m.Cold.Seconds() / m.WarmP50.Seconds()
	if !gatetest.RaceEnabled && speedup < 1 {
		// The ≥2× floor holds on work counts below; live, assert a
		// noise-tolerant wall backstop (the other gates' convention).
		t.Errorf("warm repeat p50 %.0fms is no faster than the cold request %.0fms",
			float64(m.WarmP50.Milliseconds()), float64(m.Cold.Milliseconds()))
	}
	if m.WarmHit == 0 {
		t.Error("warm repeats hit no cached bases")
	}
	if m.AttackRPS <= 0 {
		t.Error("concurrent attack burst measured no throughput")
	}
	// The warm topology's saving, in deterministic work: the warm repeat
	// must make at most half the cold request's dispatch solves. A wall
	// speedup floor would shrink whenever the cold path got faster. The
	// replay's LP pivots must equal the daemon's, so the counts are the
	// daemon's work.
	w := replayServeWork(t, "case118")
	if w.cold.lpPivots != m.ColdPivots || w.warm.lpPivots != m.WarmPivots {
		t.Errorf("replayed LP pivots cold %d warm %d, daemon cold %d warm %d",
			w.cold.lpPivots, w.warm.lpPivots, m.ColdPivots, m.WarmPivots)
	}
	if w.cold.dispatchSolves < 2*w.warm.dispatchSolves {
		t.Errorf("warm repeat made %d dispatch solves, cold request %d: want at most half",
			w.warm.dispatchSolves, w.cold.dispatchSolves)
	}
	t.Logf("case118 work: cold %d dispatch solves, %d LP pivots; warm repeat %d dispatch solves, %d LP pivots",
		w.cold.dispatchSolves, w.cold.lpPivots, w.warm.dispatchSolves, w.warm.lpPivots)
	t.Logf("case118: cold %.0fms, warm p50 %.0fms (%.1f×), warm hit rate %.2f, attack %.2f rps concurrent, %.1f MiB live heap",
		float64(m.Cold.Milliseconds()), float64(m.WarmP50.Milliseconds()), speedup,
		m.WarmHit, m.AttackRPS, float64(m.HeapLive)/(1<<20))

	testServeDeadline(t)
	testServeGoroutines(t, before)
}

// attackWork is the deterministic work of one attack.
type attackWork struct {
	dispatchSolves, lpPivots int64
}

// serveWork is the work of the daemon's cold attack request and of its
// first warm repeat.
type serveWork struct{ cold, warm attackWork }

// replayServeWork replays the daemon's attack sequence in process — one
// Knowledge at the static ratings and one warm-basis cache, shared by a cold
// attack and its repeat, with the served budgets and one worker — and counts
// each attack's dispatch solves and LP pivots.
func replayServeWork(t *testing.T, caseName string) serveWork {
	t.Helper()
	k := knowledgeCase(t, caseName)
	reg := edattack.NewMetricsRegistry()
	k.Model.Metrics = reg
	wc := edattack.NewAttackWarmCache()
	o := edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3, Workers: 1, Warm: wc, Metrics: reg}
	solves, pivots := reg.Counter("dispatch_solves_total"), reg.Counter("lp_pivots_total")
	var w [2]attackWork
	var gain float64
	for i := range w {
		d0, p0 := solves.Value(), pivots.Value()
		att, err := edattack.FindOptimalAttack(k, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && att.GainPct != gain {
			t.Fatalf("replayed warm repeat gain %.17g, cold %.17g", att.GainPct, gain)
		}
		gain = att.GainPct
		w[i] = attackWork{solves.Value() - d0, pivots.Value() - p0}
	}
	return serveWork{cold: w[0], warm: w[1]}
}

// testServeDeadline asserts a deadline-cancelled attack answers within
// 100ms of its deadline: the context threads down to branch-and-bound node
// and row-generation round granularity, so no solver layer can overshoot
// by more than one node's work.
func testServeDeadline(t *testing.T) {
	s := edattack.NewServer(edattack.ServeConfig{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the topology so the deadline budget is spent inside the solver,
	// not the case parser.
	gatetest.ServeResult(t, gatetest.ServePost(t, ts.URL, "/v1/sweep", map[string]any{
		"case": "case118", "draws": 1,
	}))

	const deadline = 400 * time.Millisecond
	body := gatetest.AttackBody("case118")
	body["deadline_ms"] = deadline.Milliseconds()
	start := time.Now()
	events := gatetest.ServePost(t, ts.URL, "/v1/attack", body)
	wall := time.Since(start)
	var failed bool
	for _, ev := range events {
		if ev.Event == "error" {
			failed = true
			if ev.Code != "deadline_exceeded" {
				t.Errorf("deadline job failed with %q (%s), want deadline_exceeded", ev.Code, ev.Error)
			}
		}
	}
	if !failed {
		t.Fatalf("case118 attack finished inside %s — deadline never fired; events %+v", deadline, events)
	}
	if overshoot := wall - deadline; !gatetest.RaceEnabled && overshoot > 100*time.Millisecond {
		t.Errorf("deadline-cancelled request took %s, overshooting the %s deadline by %s (want ≤100ms)",
			wall, deadline, overshoot)
	}
}

// testServeGoroutines asserts Close reclaims the worker pool: the goroutine
// count returns to its pre-daemon level (small slack for runtime and
// httptest background goroutines winding down).
func testServeGoroutines(t *testing.T, before int) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines not reclaimed after Close: %d now vs %d before the daemon", now, before)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeEvaluateMissingDLRBoundsGate pins the serving layer's bound
// check: a manipulation outside the plausibility band must be rejected,
// not dispatched.
func TestServeEvaluateMissingDLRBoundsGate(t *testing.T) {
	s := edattack.NewServer(edattack.ServeConfig{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	events := gatetest.ServePost(t, ts.URL, "/v1/evaluate", map[string]any{
		"case": "case9", "dlr": map[string]float64{"1": 1e6},
	})
	for _, ev := range events {
		if ev.Event == "result" {
			t.Fatal("out-of-band manipulation was dispatched, want rejection")
		}
	}
}
