package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny runs every workload on small cases (case9/case30) for about a second,
// so `go test` covers the whole benchmark path, answer checks included.
func tiny(seconds float64) params { return params{seed: 1, seconds: seconds, tiny: true} }

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runWorkload(&out, w, tiny(1), false, "")
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("reported %d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}
			if !strings.Contains(out.String(), "answers digest") {
				t.Error("no answers digest printed")
			}
		})
	}
}

// The answer checks must catch wrong answers: a served answer that differs
// from the library path's, and an attack whose replay does not reproduce
// its predicted gain.
func TestChecksCatchWrongAnswers(t *testing.T) {
	inst, err := startServe(serveSpec{rate: 100, block: []share{{kindEvaluate, 1}}, evalCase: "case30"}, tiny(1), &probe{})
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveInst)
	defer s.close()
	if err := s.prepare(); err != nil {
		t.Fatal(err)
	}
	r := request{kindEvaluate, 0}
	if o := s.fire(r, 0, time.Now(), 0, true); o.fail != "" || o.wrong != "" {
		t.Fatalf("a correct served answer failed: %q %q", o.fail, o.wrong)
	}
	ref := s.lib[r]
	ref.text += " (altered)"
	s.lib[r] = ref
	if o := s.fire(r, 1, time.Now(), 0, true); o.wrong == "" {
		t.Error("a served answer that differs from the library path's passed")
	}

	inst, err = startAttack(attackSpec{cases: []string{"case9"}, opts: servingOptions()}, tiny(1), &probe{})
	if err != nil {
		t.Fatal(err)
	}
	a := inst.(*attackInst)
	if err := a.prepare(); err != nil {
		t.Fatal(err)
	}
	name, ud := a.input(0)
	att, _, _, err := a.solve(a.nets[name], ud, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg := a.check(name, ud, att); msg != "" {
		t.Fatalf("a correct attack failed its check: %s", msg)
	}
	att.GainPct += 10 * replayTolerance
	if a.check(name, ud, att) == "" {
		t.Error("an attack whose replay does not reproduce its gain passed")
	}
}

// exercised names, per workload, the per-layer counters the workload exists
// to move. Each must read non-zero there: a registry that is not wired
// through (dispatch_* and qp_* need Model.Metrics, not only
// core.Options.Metrics) reads 0.
var exercised = map[string][]string{
	"attack-dive": {
		"dispatch.solves_per_op", "dispatch.rounds_per_solve", "qp.solves_per_op", "qp.iterations_per_op",
		"qp.iterations_per_solve_p50", "core.subproblems_per_op", "core.dive_pct", "core.warmcache_hit_ratio",
		"milp.nodes_per_op", "lp.solves_per_op", "lp.phase1_pivots_per_op", "mem.allocs_per_op", "op.solve_ms_p50",
		"gen.late_p99_ms",
	},
	"attack-exact": {
		"milp.nodes_per_op", "milp.node_pct", "milp.pruned_ratio", "lp.solves_per_op", "lp.pivots_per_op",
		"lp.solve_pct", "lp.warm_ratio", "lp.dense_solves_per_op", "core.rowgen_rounds_per_op", "core.rowgen_pct",
		"core.warm_node_ratio", "dispatch.solves_per_op", "qp.solves_per_op",
	},
	"serve-evaluate": {
		"serve.queue_pct", "serve.lock_wait_pct", "dispatch.solves_per_op", "dispatch.rounds_per_solve",
		"qp.solves_per_op", "qp.iterations_per_op", "op.solve_ms_p50", "gen.late_p99_ms", "mem.allocs_per_op",
	},
	"serve-mixed": {
		"serve.queue_pct", "serve.batch_merged_mean", "sweep.scenarios_per_s", "sweep.cache_hit_ratio",
		"dispatch.solves_per_op", "qp.solves_per_op", "milp.nodes_per_op", "core.subproblems_per_op",
		"core.warmcache_hit_ratio",
	},
}

func TestTracedRunWiresEveryLayer(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err := runWorkload(&out, w, tiny(2), true, spans)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("reported %d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
				}
			}
			for _, name := range exercised[w.name] {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s reads %g on %s, the workload meant to exercise it", name, v, w.name)
				}
			}
			var doc struct{ Spans []span }
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			ops := map[int64]bool{}
			for _, s := range doc.Spans {
				if strings.HasPrefix(s.Name, "op.") {
					ops[s.Req] = true
				}
			}
			for _, s := range doc.Spans {
				if s.Parent != 0 && !ops[s.Req] {
					t.Fatalf("span %+v belongs to no operation", s)
				}
			}
			if len(ops) == 0 {
				t.Fatal("no operation spans written")
			}
			if t.Failed() {
				t.Log(out.String())
			}
		})
	}
}

// The benchmark definition and the program must name the same workloads and
// metrics, with the same units and directions.
func TestBenchmarkDefinitionMatches(t *testing.T) {
	def, err := readBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	var setup float64
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range def.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s bound %g exceeds setup_s's %g, which must be the largest", m.Name, m.Bound, setup)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		path := filepath.Join(dir, name)
		for i, v := range p50s {
			res := &result{Workload: "attack-exact", Seed: int64(i), Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metric{100, d.Unit}
			}
			res.Metrics["p50_ms"] = metric{v, "ms"}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 100, 101, 99)
	bench := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if ok, err := compareFiles(&out, bench, base, write("b.jsonl", 100, 102, 99)); err != nil || !ok {
		t.Errorf("a 1%% median move must pass: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, bench, base, write("c.jsonl", 150, 160, 155)); err != nil || ok {
		t.Errorf("a 55%% median move must fail: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "EXCEEDS") {
		t.Errorf("the exceeded bound is not named:\n%s", out.String())
	}
}
