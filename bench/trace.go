package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/edsec/edattack/internal/telemetry"
)

// probe is what a traced pass attaches to the program, all through public
// fields: registries for the solver layers, the server, and the warm
// repeats of attack-dive, the program's flight recorder, and the
// benchmark's own span log. An untraced pass uses the zero probe: every
// field is nil, and the program and the span log treat nil as off.
type probe struct {
	solver *telemetry.Registry
	warm   *telemetry.Registry
	server *telemetry.Registry
	flight *telemetry.Flight
	spans  *spanLog

	// Readings taken by mark, when set-up ends and measurement begins, and
	// the workload span every operation span hangs under.
	base      map[*telemetry.Registry]tally
	flightSeq uint64
	root      int64
}

func newProbe() *probe {
	return &probe{
		solver: telemetry.NewRegistry(),
		warm:   telemetry.NewRegistry(),
		server: telemetry.NewRegistry(),
		flight: telemetry.NewFlight(0),
		spans:  &spanLog{t0: time.Now()},
	}
}

// mark starts the measured part of a traced pass: registry readings and
// flight events up to now belong to set-up and are left out, and the span
// log restarts.
func (p *probe) mark() {
	p.base = map[*telemetry.Registry]tally{}
	for _, r := range []*telemetry.Registry{p.solver, p.warm, p.server} {
		p.base[r] = readTally(r)
	}
	p.flightSeq = p.flight.Total()
	p.spans = &spanLog{t0: time.Now()}
	p.root = p.spans.reserve()
}

// since is a registry's tally of the work done after mark.
func (p *probe) since(r *telemetry.Registry) tally {
	return readTally(r).minus(p.base[r])
}

// flightKinds counts the flight events recorded after mark, by kind.
func (p *probe) flightKinds() map[string]int {
	out := map[string]int{}
	for _, ev := range p.flight.Events() {
		if ev.Seq > p.flightSeq {
			out[ev.Kind.String()]++
		}
	}
	return out
}

// span is one timed call recorded by the benchmark around a layer's public
// function. Spans of one operation share Req; Parent links the tree
// workload → operation → layer call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	Dur    int64  `json:"dur_us"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing and returns id 0.
type spanLog struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func (l *spanLog) add(parent, req int64, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.list) + 1)
	l.list = append(l.list, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.t0).Microseconds(), Dur: end.Sub(start).Microseconds(),
	})
	return id
}

// reserve allocates a span id for a parent whose end is not known yet;
// finish fills it in once its children are recorded.
func (l *spanLog) reserve() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.list = append(l.list, span{})
	return int64(len(l.list))
}

func (l *spanLog) finish(id, parent, req int64, name string, start, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.list[id-1] = span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.t0).Microseconds(), Dur: end.Sub(start).Microseconds(),
	}
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": l.list}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes sums, per span name, the count, total duration, and self time:
// the duration minus the part covered by the span's children.
func (l *spanLog) selfTimes() []layerRow {
	childDur := make(map[int64]int64)
	for _, s := range l.list {
		if s.Parent != 0 {
			childDur[s.Parent] += s.Dur
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range l.list {
		if s.ID == 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.totalUS += s.Dur
		r.selfUS += max(s.Dur-childDur[s.ID], 0)
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type layerRow struct {
	name            string
	count           int
	totalUS, selfUS int64
}

// tally is a set of registry readings: each counter by name, and each
// histogram as "<name>.sum" and "<name>.count". Tallies add and scale, so
// solver work measured once per distinct input can be weighted by how many
// operations carried that input.
type tally map[string]float64

func readTally(reg *telemetry.Registry) tally {
	t := tally{}
	if reg == nil {
		return t
	}
	s := reg.Snapshot()
	for k, v := range s.Counters {
		t[k] = float64(v)
	}
	for k, h := range s.Histograms {
		t[k+".sum"] = h.Sum
		t[k+".count"] = float64(h.Count)
		for i, c := range h.Counts {
			t[fmt.Sprintf("%s.b%d", k, i)] = float64(c)
		}
	}
	return t
}

// quantile estimates the q-quantile of a histogram from its bucket counts
// in t (0 when it observed nothing), as the registry itself would.
func (t tally) quantile(name string, bounds []float64, q float64) float64 {
	s := telemetry.HistogramSnapshot{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
	for i := range s.Counts {
		s.Counts[i] = int64(math.Round(t[fmt.Sprintf("%s.b%d", name, i)]))
		s.Count += s.Counts[i]
	}
	if s.Count == 0 {
		return 0
	}
	return s.Quantile(q)
}

func (t tally) minus(o tally) tally {
	d := tally{}
	for k, v := range t {
		d[k] = v - o[k]
	}
	return d
}

func (t tally) addScaled(o tally, w float64) {
	for k, v := range o {
		t[k] += v * w
	}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	solver     tally   // solver-layer work behind the workload's operations
	solverOps  float64 // operations the solver work is divided by
	solverSec  float64 // seconds spent inside core calls behind solver
	warm       tally   // attack-dive's warm repeats
	server     tally   // the daemon's own registry
	ph         phase
	mem        memReading
	overhead   float64
	spans      *spanLog
	flightKind map[string]int
}

// layerMetrics computes every per-layer metric. Counts are per operation so
// runs of different lengths compare; times are shares of the time spent in
// the solver (or, for serve, in requests), so a layer a workload does not
// reach reads a true 0.
func layerMetrics(in layerInputs) map[string]float64 {
	s := in.solver
	per := func(k string) float64 { return ratio(s[k], in.solverOps) }
	pct := func(k string) float64 { return 100 * ratio(s[k], in.solverSec) }
	// attack-dive's warm repeats are the lookups its warm caches serve; its
	// cold attacks only fill them. Elsewhere the solver's lookups count.
	wc := in.warm
	if wc["core_warmcache_hits_total"]+wc["core_warmcache_misses_total"] == 0 {
		wc = s
	}
	hits, misses := wc["core_warmcache_hits_total"], wc["core_warmcache_misses_total"]
	sv := in.server
	m := map[string]float64{
		"core.subproblems_per_op":   per("core_subproblems_total"),
		"core.pruned_ratio":         ratio(s["core_subproblems_pruned_total"], s["core_subproblems_total"]),
		"core.rowgen_rounds_per_op": per("core_rowgen_round_seconds.count"), // every round; the counter skips pruned subproblems
		"core.rowgen_pct":           pct("core_rowgen_round_seconds.sum"),
		"core.warmcache_hit_ratio":  ratio(hits, hits+misses),
		"core.warm_node_ratio":      ratio(s["attack_warm_nodes"], s["attack_nodes"]),

		"dispatch.solves_per_op":      per("dispatch_solves_total"),
		"dispatch.rounds_per_solve":   ratio(s["dispatch_rowgen_rounds_total"], s["dispatch_solves_total"]),
		"dispatch.infeasible_per_op":  per("dispatch_infeasible_total"),
		"qp.solves_per_op":            per("qp_solves_total"),
		"qp.iterations_per_op":        per("qp_iterations_total"),
		"qp.iterations_per_solve_p50": s.quantile("qp_iterations", telemetry.IterBuckets, 0.5),
		"qp.infeasible_per_op":        per("qp_infeasible_total"),

		"milp.nodes_per_op":          per("milp_nodes_total"),
		"milp.node_pct":              pct("milp_node_seconds.sum"),
		"milp.pruned_ratio":          ratio(s["milp_pruned_total"], s["milp_nodes_total"]),
		"milp.incumbents_per_op":     per("milp_incumbents_total"),
		"milp.cuts_per_op":           per("milp_cuts_total"),
		"milp.presolve_fixed_per_op": per("milp_presolve_fixed_total"),

		"lp.solves_per_op":        per("lp_solves_total"),
		"lp.pivots_per_op":        per("lp_pivots_total"),
		"lp.phase1_pivots_per_op": per("lp_phase1_pivots_total"),
		"lp.solve_pct":            pct("lp_solve_seconds.sum"),
		"lp.warm_ratio":           ratio(s["lp_warm_solves_total"], s["lp_solves_total"]),
		"lp.dense_solves_per_op":  per("lp_dense_solves_total"),
		"lp.sparse_solves_per_op": per("lp_sparse_solves_total"),
		"sparse.ftran_per_op":     per("lp_ftran_total"),
		"sparse.btran_per_op":     per("lp_btran_total"),
		"sparse.refactors_per_op": per("lp_refactorizations_total"),

		"sweep.scenarios_per_s": ratio(sv["sweep_scenarios_total"], sv["sweep_batch_seconds.sum"]),
		"sweep.cache_hit_ratio": ratio(sv["sweep_cache_hits_total"], sv["sweep_cache_hits_total"]+sv["sweep_cache_misses_total"]),
		"serve.rejected":        sv["serve_rejected_total"],

		"mem.allocs_per_op":   ratio(in.mem.mallocs, float64(len(in.ph.ops)+in.ph.sat.n)),
		"mem.gc_cycles":       in.mem.gcCycles,
		"mem.gc_pause_p99_ms": in.mem.pauseP99MS,
		"gen.late_p99_ms":     lateP99(in.ph.ops),
		"gen.backlog_end":     float64(in.ph.backlog),
		"trace.overhead_pct":  in.overhead,
	}
	// The dive is what an attack spends outside row generation; the program
	// has no timer of its own for it.
	if s["core_rowgen_round_seconds.count"] > 0 {
		m["core.dive_pct"] = 100 - m["core.rowgen_pct"]
	}

	// Serve timings come from the open-loop requests, whose latency p50_ms
	// reports; failures from every request.
	var solve []float64
	var wall, queue, lock, merged, sweeps, fails float64
	for _, n := range in.ph.sat.failed {
		fails += float64(n)
	}
	for _, o := range in.ph.ops {
		if o.timed && o.solve > 0 {
			solve = append(solve, ms(o.solve))
		}
		if o.fail != "" {
			fails++
		}
		if o.wallMS > 0 {
			wall += o.wallMS
			queue += o.queueMS
			lock += max(o.wallMS-o.queueMS-o.solveMS, 0)
		}
		if o.merged > 0 {
			merged += float64(o.merged)
			sweeps++
		}
	}
	m["serve.queue_pct"] = 100 * ratio(queue, wall)
	m["serve.lock_wait_pct"] = 100 * ratio(lock, wall)
	m["serve.batch_merged_mean"] = ratio(merged, sweeps)
	m["serve.errors"] = fails - sv["serve_rejected_total"] // failures other than 429s
	m["op.solve_ms_p50"] = median(solve)
	return m
}

// printLayerTable prints the traced pass's per-layer view: the benchmark's
// spans with self time, the time the program's own registries attribute
// inside core, every per-layer metric, and the flight recorder's events.
func printLayerTable(w io.Writer, in layerInputs, m map[string]float64) {
	rows := in.spans.selfTimes()
	var root int64
	for _, r := range rows {
		if r.name == "workload" {
			root = r.totalUS
		}
	}
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %7s\n", "span (benchmark-recorded)", "count", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f %7.1f\n", r.name, r.count,
			float64(r.totalUS)/1e3, float64(r.selfUS)/1e3, 100*ratio(float64(r.selfUS), float64(root)))
	}
	s := in.solver
	fmt.Fprintf(w, "  inside core (program registry, %.0f ops, %.1f ms in core calls):\n", in.solverOps, in.solverSec*1e3)
	for _, k := range []string{"core_rowgen_round_seconds", "milp_node_seconds", "lp_solve_seconds"} {
		fmt.Fprintf(w, "    %-30s %10.0f obs %12.1f ms\n", k, s[k+".count"], s[k+".sum"]*1e3)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	layer := ""
	for _, k := range names {
		l := k[:strings.IndexByte(k, '.')]
		if l != layer {
			layer = l
			fmt.Fprintf(w, "  [%s]\n", l)
		}
		fmt.Fprintf(w, "    %-30s %14.6g\n", k, m[k])
	}
	kinds := make([]string, 0, len(in.flightKind))
	for k := range in.flightKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprint(w, "  flight events:")
	for _, k := range kinds {
		fmt.Fprintf(w, " %s=%d", k, in.flightKind[k])
	}
	fmt.Fprintln(w)
}
