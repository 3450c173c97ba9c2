package serve

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// TestJobPanicAnswersInternal pins the daemon's panic isolation: a panic
// inside one job's solve answers that job with an internal error followed
// by done, is counted and recorded with its stack, and leaves the worker
// and the topology serving — the next request on the same topology gets
// the bit-identical library answer. A sweep job is covered too.
func TestJobPanicAnswersInternal(t *testing.T) {
	var evalPanics, sweepPanics atomic.Int32
	setSolveHook(t, func(kind jobKind) {
		switch {
		case kind == kindEvaluate && evalPanics.Add(1) == 1:
			panic("injected evaluate panic")
		case kind == kindSweep && sweepPanics.Add(1) == 1:
			panic("injected sweep panic")
		}
	})
	reg := telemetry.NewRegistry()
	fl := telemetry.NewFlight(0)
	_, ts := newTestServer(t, Config{Workers: 1, Metrics: reg, Flight: fl})

	body := map[string]any{"case": "case9", "dlr": map[string]float64{"1": 260, "7": 240}}
	events := postJob(t, ts.URL, "/v1/evaluate", body)
	if ev := errorOf(t, events); ev.Code != "internal" || !strings.Contains(ev.Error, "injected evaluate panic") {
		t.Fatalf("panicking job answered %+v, want code internal carrying the panic", ev)
	}
	if events[2].Event != "done" {
		t.Fatalf("panicking job's stream ended with %q, want done", events[2].Event)
	}
	if n := reg.Counter("serve_panics_total").Value(); n != 1 {
		t.Fatalf("serve_panics_total = %d, want 1", n)
	}
	var recorded bool
	for _, ev := range fl.Events() {
		if ev.Kind == telemetry.FlightPanic && strings.Contains(ev.Label, "injected evaluate panic") &&
			strings.Contains(ev.Label, "goroutine") {
			recorded = true
		}
	}
	if !recorded {
		t.Fatal("no panic flight event carrying the value and stack")
	}

	res := resultOf(t, postJob(t, ts.URL, "/v1/evaluate", body))
	net, err := cases.Load("case9")
	if err != nil {
		t.Fatal(err)
	}
	model, err := dispatch.BuildModel(net)
	if err != nil {
		t.Fatal(err)
	}
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		ud[li] = net.Lines[li].RateMVA
	}
	k, err := core.NewKnowledge(model, ud)
	if err != nil {
		t.Fatal(err)
	}
	want, err := k.EvaluateAttack(map[int]float64{1: 260, 7: 240})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Evaluation
	if got == nil || got.Feasible != want.Feasible || got.GainPct != want.GainPct ||
		got.WorstLine != want.WorstLine || got.Direction != want.Direction || got.Cost != want.Dispatch.Cost {
		t.Fatalf("evaluation after the panic %+v, want the library's %+v", got, want)
	}

	sweep := map[string]any{"case": "case9", "draws": 8, "seed": 3}
	if ev := errorOf(t, postJob(t, ts.URL, "/v1/sweep", sweep)); ev.Code != "internal" {
		t.Fatalf("panicking sweep answered %+v, want code internal", ev)
	}
	if r := resultOf(t, postJob(t, ts.URL, "/v1/sweep", sweep)); r.Sweep == nil || r.Sweep.Scenarios == 0 {
		t.Fatalf("sweep after the panic answered %+v", r)
	}
	if n := reg.Counter("serve_panics_total").Value(); n != 2 {
		t.Fatalf("serve_panics_total = %d, want 2", n)
	}
}
