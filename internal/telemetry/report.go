package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"
)

// ReadSpans parses a JSONL trace (as written by Tracer) into span events.
// Blank lines are skipped; a malformed line is an error, since a trace is
// machine-written and corruption should not be papered over.
func ReadSpans(r io.Reader) ([]SpanEvent, error) {
	var spans []SpanEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev SpanEvent
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		spans = append(spans, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read trace: %w", err)
	}
	return spans, nil
}

// Report fuses the three observability artifacts of one solver run — the
// flight record, a metrics snapshot, and an optional span trace — into a
// self-contained Markdown or HTML document. Any of the three inputs may be
// empty; the corresponding sections are then omitted or abbreviated.
type Report struct {
	Title   string
	Events  []FlightEvent
	Metrics Snapshot
	Spans   []SpanEvent
}

// SearchTree is the branch-and-bound tree of one MILP solve, grouped from
// FlightNode events by (Target, Dir, Round).
type SearchTree struct {
	Target int           `json:"target"`
	Dir    int           `json:"dir"`
	Round  int           `json:"round"`
	Nodes  []FlightEvent `json:"nodes"`
}

// FlightTrees groups a flight record's node events into per-solve search
// trees, largest first.
func FlightTrees(events []FlightEvent) []*SearchTree {
	type key struct{ target, dir, round int }
	byKey := map[key]*SearchTree{}
	var order []key
	for _, ev := range events {
		if ev.Kind != FlightNode {
			continue
		}
		k := key{ev.Target, ev.Dir, ev.Round}
		t := byKey[k]
		if t == nil {
			t = &SearchTree{Target: k.target, Dir: k.dir, Round: k.round}
			byKey[k] = t
			order = append(order, k)
		}
		t.Nodes = append(t.Nodes, ev)
	}
	trees := make([]*SearchTree, 0, len(order))
	for _, k := range order {
		trees = append(trees, byKey[k])
	}
	sort.SliceStable(trees, func(i, j int) bool {
		return len(trees[i].Nodes) > len(trees[j].Nodes)
	})
	return trees
}

// LargestTree returns the search tree with the most nodes, or nil when the
// flight record holds no node events.
func (r *Report) LargestTree() *SearchTree {
	trees := FlightTrees(r.Events)
	if len(trees) == 0 {
		return nil
	}
	return trees[0]
}

func (t *SearchTree) title() string {
	return fmt.Sprintf("target %d dir %+d round %d — %d nodes", t.Target, t.Dir, t.Round, len(t.Nodes))
}

// WriteDOT renders the tree in Graphviz DOT: one box per node with its
// bound, pivot count, warm/cold marker, and open-frontier size, colored by
// disposition (incumbents green, pruned gray, infeasible red). Edges where
// the child was popped immediately after its parent (a continuing dive)
// are solid; edges where the search later backtracked to the child from the
// frontier are dashed, so the depth-first pop schedule reads from the
// drawing.
func (t *SearchTree) WriteDOT(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("digraph bnb {\n")
	p("  label=%q;\n", t.title())
	p("  node [shape=box, fontsize=9, fontname=\"monospace\"];\n")
	for _, ev := range t.Nodes {
		start := "cold"
		if ev.Warm {
			start = "warm"
		}
		label := fmt.Sprintf("#%d d%d %s\\nbound %.4g\\n%d pivots %s\\nfrontier %d",
			ev.Node, ev.Depth, ev.Label, ev.Bound, ev.Pivots, start, ev.Frontier)
		color := "black"
		switch ev.Label {
		case "incumbent", "integral":
			color = "forestgreen"
		case "pruned":
			color = "gray50"
		case "infeasible", "conflict":
			color = "firebrick"
		}
		p("  n%d [label=\"%s\", color=%s];\n", ev.Node, label, color)
		if ev.Parent > 0 {
			style := ""
			if ev.Node != ev.Parent+1 {
				style = " [style=dashed]"
			}
			p("  n%d -> n%d%s;\n", ev.Parent, ev.Node, style)
		}
	}
	p("}\n")
	return err
}

// WriteJSON renders the tree as indented JSON.
func (t *SearchTree) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// timelineRow is one entry of the convergence timeline: incumbent updates
// interleaved with subproblem completions, in recording order.
type timelineRow struct {
	tMS   float64
	what  string
	where string
	value string
	note  string
}

func (r *Report) timeline() []timelineRow {
	var rows []timelineRow
	for _, ev := range r.Events {
		switch ev.Kind {
		case FlightIncumbent:
			rows = append(rows, timelineRow{
				tMS:   float64(ev.TUS) / 1000,
				what:  "incumbent",
				where: subproblemName(ev),
				value: fmt.Sprintf("%.6g", ev.Incumbent),
				note:  ev.Label,
			})
		case FlightSubproblem:
			note := ev.Label
			if ev.Round > 0 {
				note += fmt.Sprintf(", %d rounds", ev.Round)
			}
			rows = append(rows, timelineRow{
				tMS:   float64(ev.TUS) / 1000,
				what:  "subproblem",
				where: subproblemName(ev),
				value: fmt.Sprintf("%.6g", ev.Bound),
				note:  note,
			})
		case FlightAttack:
			rows = append(rows, timelineRow{
				tMS:   float64(ev.TUS) / 1000,
				what:  "attack",
				where: subproblemName(ev),
				value: fmt.Sprintf("%.6g", ev.Incumbent),
				note:  ev.Label,
			})
		}
	}
	return rows
}

func subproblemName(ev FlightEvent) string {
	if ev.Target == 0 && ev.Dir == 0 {
		return "—"
	}
	return fmt.Sprintf("line %d %+d", ev.Target, ev.Dir)
}

// phaseRow is one row of the per-phase wall breakdown, aggregated from
// trace spans (exact quantiles over the recorded durations).
type phaseRow struct {
	name                       string
	count                      int
	totalMS                    float64
	p50MS, p95MS, p99MS, maxMS float64
}

func (r *Report) phases() []phaseRow {
	byName := map[string][]float64{}
	var order []string
	for _, sp := range r.Spans {
		if _, ok := byName[sp.Name]; !ok {
			order = append(order, sp.Name)
		}
		byName[sp.Name] = append(byName[sp.Name], float64(sp.DurUS)/1000)
	}
	rows := make([]phaseRow, 0, len(order))
	for _, name := range order {
		durs := byName[name]
		sort.Float64s(durs)
		var total float64
		for _, d := range durs {
			total += d
		}
		rows = append(rows, phaseRow{
			name:    name,
			count:   len(durs),
			totalMS: total,
			p50MS:   exactQuantile(durs, 0.50),
			p95MS:   exactQuantile(durs, 0.95),
			p99MS:   exactQuantile(durs, 0.99),
			maxMS:   durs[len(durs)-1],
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].totalMS > rows[j].totalMS })
	return rows
}

// exactQuantile returns the q-quantile of sorted (nearest-rank).
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencyLine summarizes one latency histogram from the metrics snapshot.
type latencyLine struct {
	name                string
	count               int64
	p50, p95, p99, mean float64 // seconds
}

// latencyHistograms are the solver latency surfaces introduced with the
// flight recorder, reported when present in the snapshot.
var latencyHistograms = []string{
	"lp_solve_seconds",
	"milp_node_seconds",
	"core_rowgen_round_seconds",
}

func (r *Report) latencies() []latencyLine {
	var lines []latencyLine
	for _, name := range latencyHistograms {
		h, ok := r.Metrics.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		lines = append(lines, latencyLine{
			name:  name,
			count: h.Count,
			p50:   h.P50,
			p95:   h.P95,
			p99:   h.P99,
			mean:  h.Sum / float64(h.Count),
		})
	}
	return lines
}

// summary aggregates flight-record counts by kind and node disposition.
func (r *Report) summary() []string {
	var nodes, lps, incumbents, rounds, subs int
	byLabel := map[string]int{}
	outcomes := map[string]int{}
	var warmLP, sparseLP int
	var result *FlightEvent
	for i, ev := range r.Events {
		switch ev.Kind {
		case FlightNode:
			nodes++
			byLabel[ev.Label]++
		case FlightLP:
			lps++
			if ev.Warm {
				warmLP++
			}
			if ev.Sparse {
				sparseLP++
			}
		case FlightIncumbent:
			incumbents++
		case FlightRound:
			rounds++
		case FlightSubproblem:
			subs++
			outcomes[ev.Label]++
		case FlightAttack:
			result = &r.Events[i]
		}
	}
	var out []string
	if result != nil {
		out = append(out, fmt.Sprintf("result: %s on %s, gain %.6g%%",
			result.Label, subproblemName(*result), result.Incumbent))
	}
	if subs > 0 {
		out = append(out, fmt.Sprintf("subproblems: %d (%s)", subs, countMap(outcomes)))
	}
	if rounds > 0 {
		out = append(out, fmt.Sprintf("row-generation rounds: %d", rounds))
	}
	if nodes > 0 {
		out = append(out, fmt.Sprintf("B&B nodes: %d (%s)", nodes, countMap(byLabel)))
	}
	if lps > 0 {
		out = append(out, fmt.Sprintf("LP solves: %d (%d warm, %d sparse, %d dense)",
			lps, warmLP, sparseLP, lps-sparseLP))
	}
	if incumbents > 0 {
		out = append(out, fmt.Sprintf("incumbent updates: %d", incumbents))
	}
	if len(out) == 0 {
		out = append(out, "no flight events recorded")
	}
	return out
}

func countMap(m map[string]int) string {
	keys := sortedKeys(m)
	parts := make([]string, 0, len(m))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d %s", m[k], k))
	}
	return strings.Join(parts, ", ")
}

// WriteMarkdown renders the report as GitHub-flavored Markdown. The DOT
// search tree is embedded in a fenced code block, ready for `dot -Tsvg`.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	title := r.Title
	if title == "" {
		title = "Solver run report"
	}
	p("# %s\n\n## Summary\n\n", title)
	for _, line := range r.summary() {
		p("- %s\n", line)
	}

	if rows := r.timeline(); len(rows) > 0 {
		p("\n## Convergence timeline\n\n")
		p("| t (ms) | event | subproblem | value | note |\n")
		p("|-------:|-------|------------|------:|------|\n")
		for _, row := range rows {
			p("| %.1f | %s | %s | %s | %s |\n", row.tMS, row.what, row.where, row.value, row.note)
		}
	}

	if rows := r.phases(); len(rows) > 0 {
		p("\n## Per-phase wall breakdown\n\n")
		p("| phase | count | total (ms) | p50 | p95 | p99 | max |\n")
		p("|-------|------:|-----------:|----:|----:|----:|----:|\n")
		for _, row := range rows {
			p("| %s | %d | %.1f | %.2f | %.2f | %.2f | %.2f |\n",
				row.name, row.count, row.totalMS, row.p50MS, row.p95MS, row.p99MS, row.maxMS)
		}
	}

	if lines := r.latencies(); len(lines) > 0 {
		p("\n## Latency quantiles\n\n")
		p("| histogram | count | p50 (ms) | p95 (ms) | p99 (ms) | mean (ms) |\n")
		p("|-----------|------:|---------:|---------:|---------:|----------:|\n")
		for _, l := range lines {
			p("| %s | %d | %.3f | %.3f | %.3f | %.3f |\n",
				l.name, l.count, l.p50*1000, l.p95*1000, l.p99*1000, l.mean*1000)
		}
	}

	if t := r.LargestTree(); t != nil {
		p("\n## Search tree (%s)\n\n```dot\n", t.title())
		if err == nil {
			err = t.WriteDOT(w)
		}
		p("```\n")
	}
	return err
}

// WriteHTML renders the report as a dependency-free standalone HTML page
// (the DOT source is included in a <pre> block).
func (r *Report) WriteHTML(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	title := r.Title
	if title == "" {
		title = "Solver run report"
	}
	p("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title>\n", html.EscapeString(title))
	p("<style>body{font-family:sans-serif;max-width:72em;margin:2em auto;padding:0 1em}" +
		"table{border-collapse:collapse;margin:1em 0}td,th{border:1px solid #ccc;padding:.25em .6em;font-size:.9em}" +
		"th{background:#f3f3f3}td.num{text-align:right}pre{background:#f7f7f7;padding:1em;overflow-x:auto}</style>\n")
	p("</head><body>\n<h1>%s</h1>\n<h2>Summary</h2>\n<ul>\n", html.EscapeString(title))
	for _, line := range r.summary() {
		p("<li>%s</li>\n", html.EscapeString(line))
	}
	p("</ul>\n")

	if rows := r.timeline(); len(rows) > 0 {
		p("<h2>Convergence timeline</h2>\n<table>\n<tr><th>t (ms)</th><th>event</th><th>subproblem</th><th>value</th><th>note</th></tr>\n")
		for _, row := range rows {
			p("<tr><td class=\"num\">%.1f</td><td>%s</td><td>%s</td><td class=\"num\">%s</td><td>%s</td></tr>\n",
				row.tMS, html.EscapeString(row.what), html.EscapeString(row.where),
				html.EscapeString(row.value), html.EscapeString(row.note))
		}
		p("</table>\n")
	}

	if rows := r.phases(); len(rows) > 0 {
		p("<h2>Per-phase wall breakdown</h2>\n<table>\n<tr><th>phase</th><th>count</th><th>total (ms)</th><th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>\n")
		for _, row := range rows {
			p("<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%.1f</td><td class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td class=\"num\">%.2f</td></tr>\n",
				html.EscapeString(row.name), row.count, row.totalMS, row.p50MS, row.p95MS, row.p99MS, row.maxMS)
		}
		p("</table>\n")
	}

	if lines := r.latencies(); len(lines) > 0 {
		p("<h2>Latency quantiles</h2>\n<table>\n<tr><th>histogram</th><th>count</th><th>p50 (ms)</th><th>p95 (ms)</th><th>p99 (ms)</th><th>mean (ms)</th></tr>\n")
		for _, l := range lines {
			p("<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%.3f</td><td class=\"num\">%.3f</td><td class=\"num\">%.3f</td><td class=\"num\">%.3f</td></tr>\n",
				html.EscapeString(l.name), l.count, l.p50*1000, l.p95*1000, l.p99*1000, l.mean*1000)
		}
		p("</table>\n")
	}

	if t := r.LargestTree(); t != nil {
		p("<h2>Search tree (%s)</h2>\n<pre>", html.EscapeString(t.title()))
		var dot strings.Builder
		if err == nil {
			err = t.WriteDOT(&dot)
		}
		p("%s</pre>\n", html.EscapeString(dot.String()))
	}
	p("</body></html>\n")
	return err
}
