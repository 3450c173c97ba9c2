package telemetry

import (
	"strings"
	"testing"
)

// reportFixture builds a small but fully populated report: two search
// trees, an incumbent trail, subproblem completions, trace spans, and the
// three latency histograms.
func reportFixture() *Report {
	f := NewFlight(64)
	// Subproblem (3, +1, round 1): a 3-node tree that finds an incumbent.
	f.Record(FlightEvent{Kind: FlightNode, Target: 3, Dir: 1, Round: 1, Node: 1, Depth: 0, Bound: 8.0, Pivots: 12, Label: "branch", Frontier: 2})
	f.Record(FlightEvent{Kind: FlightNode, Target: 3, Dir: 1, Round: 1, Node: 2, Parent: 1, Depth: 1, Bound: 6.5, Pivots: 4, Warm: true, Label: "incumbent", Frontier: 1})
	f.Record(FlightEvent{Kind: FlightIncumbent, Target: 3, Dir: 1, Incumbent: 6.5, Label: "integral"})
	f.Record(FlightEvent{Kind: FlightNode, Target: 3, Dir: 1, Round: 1, Node: 3, Parent: 1, Depth: 1, Bound: 5.0, Pivots: 2, Warm: true, Label: "pruned", Frontier: 0})
	f.Record(FlightEvent{Kind: FlightRound, Target: 3, Dir: 1, Round: 1, Monitored: 5, Violated: 2, Label: "grow"})
	f.Record(FlightEvent{Kind: FlightSubproblem, Target: 3, Dir: 1, Round: 2, Bound: 6.5, Label: "optimal"})
	// Subproblem (7, -1): a lone infeasible root.
	f.Record(FlightEvent{Kind: FlightNode, Target: 7, Dir: -1, Round: 1, Node: 1, Label: "infeasible"})
	f.Record(FlightEvent{Kind: FlightSubproblem, Target: 7, Dir: -1, Round: 1, Label: "infeasible"})
	f.Record(FlightEvent{Kind: FlightLP, Sparse: true, Warm: true, Pivots: 9, Label: "optimal"})
	f.Record(FlightEvent{Kind: FlightAttack, Target: 3, Dir: 1, Incumbent: 6.5, Label: "optimal"})

	reg := NewRegistry()
	for _, v := range []float64{0.002, 0.004, 0.02} {
		reg.Histogram("lp_solve_seconds", SecondsBuckets).Observe(v)
	}
	reg.Histogram("milp_node_seconds", SecondsBuckets).Observe(0.01)

	return &Report{
		Title:   "fixture run",
		Events:  f.Events(),
		Metrics: reg.Snapshot(),
		Spans: []SpanEvent{
			{ID: 1, Name: "core.subproblem", Start: "2026-08-08T00:00:00Z", DurUS: 12000},
			{ID: 2, Parent: 1, Name: "milp.solve", Start: "2026-08-08T00:00:00Z", DurUS: 9000},
			{ID: 3, Name: "core.subproblem", Start: "2026-08-08T00:00:01Z", DurUS: 3000},
		},
	}
}

func TestReadSpans(t *testing.T) {
	in := `{"id":1,"name":"a","start":"2026-08-08T00:00:00Z","dur_us":100}

{"id":2,"parent":1,"name":"b","start":"2026-08-08T00:00:00Z","dur_us":50,"attrs":{"case":"case9"}}
`
	spans, err := ReadSpans(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Parent != 1 || spans[1].Attrs["case"] != "case9" {
		t.Errorf("parsed spans: %+v", spans)
	}
	if _, err := ReadSpans(strings.NewReader("{broken\n")); err == nil {
		t.Error("malformed trace line accepted")
	}
	if spans, err := ReadSpans(strings.NewReader("")); err != nil || len(spans) != 0 {
		t.Errorf("empty trace: %v, %d spans", err, len(spans))
	}
}

func TestFlightTrees(t *testing.T) {
	r := reportFixture()
	trees := FlightTrees(r.Events)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	// Largest first: the 3-node tree of subproblem (3, +1).
	if trees[0].Target != 3 || trees[0].Dir != 1 || len(trees[0].Nodes) != 3 {
		t.Errorf("largest tree: target=%d dir=%d nodes=%d", trees[0].Target, trees[0].Dir, len(trees[0].Nodes))
	}
	if trees[1].Target != 7 || len(trees[1].Nodes) != 1 {
		t.Errorf("second tree: target=%d nodes=%d", trees[1].Target, len(trees[1].Nodes))
	}
	if got := r.LargestTree(); got.Target != 3 {
		t.Errorf("LargestTree target = %d", got.Target)
	}
	if (&Report{}).LargestTree() != nil {
		t.Error("empty report grew a tree")
	}
}

func TestWriteDOT(t *testing.T) {
	var b strings.Builder
	if err := reportFixture().LargestTree().WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{
		"digraph bnb {",
		"n1 -> n2;",
		// Node 3 was popped off the frontier later than its sibling, so
		// its edge renders dashed — the backtrack marker.
		"n1 -> n3 [style=dashed];",
		"color=forestgreen", // incumbent node
		"color=gray50",      // pruned node
		"warm",
		"frontier 2",
		"target 3 dir +1 round 1 — 3 nodes",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	var b strings.Builder
	if err := reportFixture().WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	md := b.String()
	for _, want := range []string{
		"# fixture run",
		"## Summary",
		"result: optimal on line 3 +1, gain 6.5%",
		"subproblems: 2 (1 infeasible, 1 optimal)",
		"## Convergence timeline",
		"| incumbent | line 3 +1 | 6.5 | integral |",
		"## Per-phase wall breakdown",
		"| core.subproblem | 2 | 15.0 |",
		"## Latency quantiles",
		"| lp_solve_seconds | 3 |",
		"| milp_node_seconds | 1 |",
		"## Search tree",
		"```dot",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestWriteMarkdownEmpty(t *testing.T) {
	var b strings.Builder
	if err := (&Report{}).WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	md := b.String()
	if !strings.Contains(md, "no flight events recorded") {
		t.Errorf("empty report summary:\n%s", md)
	}
	for _, absent := range []string{"Convergence", "Per-phase", "Latency", "Search tree"} {
		if strings.Contains(md, absent) {
			t.Errorf("empty report should omit the %s section:\n%s", absent, md)
		}
	}
}

func TestWriteHTML(t *testing.T) {
	r := reportFixture()
	r.Title = `run <script>alert("x")</script>`
	var b strings.Builder
	if err := r.WriteHTML(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	if strings.Contains(page, "<script>alert") {
		t.Error("title not HTML-escaped")
	}
	for _, want := range []string{
		"<!DOCTYPE html>",
		"&lt;script&gt;",
		"<h2>Convergence timeline</h2>",
		"<h2>Per-phase wall breakdown</h2>",
		"<h2>Latency quantiles</h2>",
		"digraph bnb {",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

func TestSearchTreeJSON(t *testing.T) {
	var b strings.Builder
	if err := reportFixture().LargestTree().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"target": 3`, `"kind": "node"`, `"label": "incumbent"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("tree JSON missing %q:\n%s", want, b.String())
		}
	}
}
