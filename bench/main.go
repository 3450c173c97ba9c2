// Command bench is the repository's benchmark: four seeded workloads that
// drive the attack solver and the serving daemon through their public
// functions, check every answer, and print end-to-end metrics (or, with
// --trace 1, per-layer metrics) by name with their units. The last line of
// a workload run is one JSON object: correct, attempted, failed, metrics.
//
// Run from the repository root through the wrapper, which builds first:
//
//	bash bench/run.sh --workload attack-exact --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1                      # every workload
//	bash bench/run.sh --workload serve-mixed --trace 1 --spans spans.json
//	bash bench/run.sh --compare a.jsonl b.jsonl     # repeatability check
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// params are a run's inputs. tiny selects small cases and rates, so the
// tests can run every workload in about a second.
type params struct {
	seed    int64
	seconds float64
	tiny    bool
}

func (p params) window() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 5

// digestOps is how many leading operations the answers digest covers: every
// run of a seed completes at least this many, so digests compare across
// runs of different lengths. Only their answers are kept.
const digestOps = 16

// workload is one named set of inputs. start builds a ready instance: the
// work setup_s times. procs, when set, is the GOMAXPROCS the workload runs
// at.
//
// The attack workloads run at one: they are sequential (one client,
// Workers 1), so a second processor only hosts the collector's background
// work, and on a shared 2-vCPU VM that work slowed the attack thread by
// more than the reference, timed between attacks, could see. In interleaved
// runs of attack-dive at two processors and at one, the raw median cold
// attack took 195 and 145 ms, the reference read 0.60 and 0.75 of nominal,
// and the scaled median spread 3.2% and 2.7% over ten runs; in a slow
// spell at two processors it had spread 14.8%.
type workload struct {
	name  string
	why   string
	procs int
	start func(p params, pr *probe) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// prepare readies the answer checks. It is not part of set-up time.
	prepare() error
	// measure runs operations for d, pausing to tick ref whenever it is
	// due and nothing is in flight. Every answer is checked as it arrives.
	measure(d time.Duration, ref *refClock) phase
	// layers returns the solver-layer work behind the measured operations.
	layers() layerInputs
	close()
}

// op is one operation: an attack, a warm repeat, or a served request.
type op struct {
	timing
	idx    int           // position in the seeded schedule
	kind   string        // attack, attack_cold, attack_warm, evaluate, sweep
	timed  bool          // feeds p50_ms
	end    time.Time     // wall-clock completion, where its machine speed is read
	solve  time.Duration // time inside the layer call that answered it
	fail   string        // why it failed: status, error event, or late ("" = answered)
	wrong  string        // why its answer is wrong ("" = correct)
	answer string        // exact answer text of the first digestOps operations

	// Served requests only.
	req                      request
	queueMS, solveMS, wallMS float64
	merged                   int
}

// phase is what one measurement produced. Only operations whose latency is
// reported are kept, so the benchmark's own memory does not grow with the
// program's throughput.
type phase struct {
	ops     []op
	sat     saturation // serve workloads' closed-loop phase
	backlog int
}

// saturation counts the requests of a closed-loop saturation phase.
type saturation struct {
	n      int            // requests sent
	bad    int            // requests failed or wrongly answered
	rounds []satRound     // one per round of clients
	failed map[string]int // failed or wrongly answered requests, by reason
	wrong  int            // wrongly answered requests
}

// satRound is one round of the saturation phase: the requests answered
// correctly, how long the clients ran, and when the round ended.
type satRound struct {
	ok   int
	busy time.Duration
	end  time.Time
}

func (s *saturation) count(o op) {
	s.n++
	switch {
	case o.fail != "":
		s.failed[o.kind+": "+o.fail]++
		s.bad++
	case o.wrong != "":
		s.failed[o.kind+": wrong answer: "+o.wrong]++
		s.wrong++
		s.bad++
	}
}

// measurement is a phase with its memory reading and the machine-speed
// reference timed throughout it (see calib.go).
type measurement struct {
	phase
	mem memReading
	ref *refClock
}

var workloads = []workload{
	{
		name:  "attack-dive",
		why:   "cold budgeted case57 attacks, each then repeated warm: the dive's dispatch and QP solves dominate, and repeats hit the dispatch memo and warm bases",
		procs: 1,
		start: func(p params, pr *probe) (instance, error) {
			spec := attackSpec{cases: []string{"case57"}, opts: servingOptions(), warmRepeat: true}
			if p.tiny {
				spec.cases = []string{"case9"}
			}
			return startAttack(spec, p, pr)
		},
	},
	{
		name:  "attack-exact",
		why:   "cold exact attacks, case30 and case57 at 4:1, proven optimal: branch-and-bound and the dense LP carry the work, the dive is minor",
		procs: 1,
		start: func(p params, pr *probe) (instance, error) {
			spec := attackSpec{
				cases: []string{"case30", "case30", "case30", "case30", "case57"},
				opts:  exactOptions(), exact: true,
			}
			if p.tiny {
				spec.cases = []string{"case9", "case9", "case9", "case9", "case30"}
			}
			return startAttack(spec, p, pr)
		},
	},
	{
		name: "serve-evaluate",
		why:  "open-loop evaluate requests on a warm case118 daemon at 500 rps, then saturation: admission, queue, topology lock and the warm dispatch QP",
		start: func(p params, pr *probe) (instance, error) {
			spec := serveSpec{rate: 500, block: []share{{kindEvaluate, 1}}, evalCase: "case118"}
			if p.tiny {
				spec.rate, spec.evalCase = 100, "case30"
			}
			return startServe(spec, p, pr)
		},
	},
	{
		name: "serve-mixed",
		why:  "open-loop 40 rps of 70% evaluate, 25% sweep, 5% attack on one daemon, then saturation: sweeps and attacks share the workers with reads",
		start: func(p params, pr *probe) (instance, error) {
			spec := serveSpec{
				rate:     40,
				block:    []share{{kindEvaluate, 14}, {kindSweep, 5}, {kindAttack, 1}},
				evalCase: "case118", sweepCase: "case118", attackCase: "case57",
			}
			if p.tiny {
				spec.evalCase, spec.sweepCase, spec.attackCase = "case30", "case30", "case9"
			}
			return startServe(spec, p, pr)
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, in order)")
	seed := fs.Int64("seed", 1, "seed for every input and schedule")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "traced run: write the spans as JSON to this file")
	out := fs.String("out", "", "append each run's result as a JSON line to this file (for --compare)")
	compare := fs.Bool("compare", false, "compare two --out files against the bounds in ./BENCHMARK.json: --compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare needs two result files")
			return 2
		}
		ok, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	list := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		list = []workload{w}
	}
	p := params{seed: *seed, seconds: *seconds}
	code := 0
	for _, w := range list {
		res, err := runWorkload(stdout, w, p, *trace == 1, *spans)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res.contract())
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. The JSON line a run ends with is its
// contract() view; --out files hold the whole result.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Named     map[string]metric `json:"named,omitempty"`
	Digest    string            `json:"digest"`
}

func (r *result) contract() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// setUp builds the workload reps times and keeps the last instance, ready
// to measure, returning the median set-up time in raw seconds and at
// reference speed (the reference is timed after each build).
func setUp(w workload, p params, pr *probe, reps int) (instance, float64, float64, error) {
	var inst instance
	var secs []float64
	ref := newRefClock()
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.start(p, pr); err != nil {
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		ref.tick()
	}
	if err := inst.prepare(); err != nil {
		inst.close()
		return nil, 0, 0, err
	}
	raw := median(secs)
	return inst, raw, raw * ref.speed(), nil
}

// measure runs one phase from a collected heap, watching memory and timing
// the machine-speed reference throughout.
func measure(inst instance, d time.Duration) measurement {
	runtime.GC()
	ref := newRefClock()
	ref.tick()
	mw := startMemWatch()
	ph := inst.measure(d, ref)
	mem := mw.end()
	return measurement{phase: ph, mem: mem, ref: ref}
}

func runWorkload(stdout io.Writer, w workload, p params, traced bool, spansPath string) (*result, error) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "== %s (seed %d, %g s, %s): %s\n", w.name, p.seed, p.seconds, mode, w.why)
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	if !traced {
		inst, rawSetup, setupS, err := setUp(w, p, &probe{}, setupReps)
		if err != nil {
			return nil, err
		}
		defer inst.close()
		m := measure(inst, p.window())
		res := summarize(stdout, w, p, m)
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Named["raw_setup_s"] = metric{rawSetup, "s"}
		printMetrics(stdout, "end-to-end, at reference speed", res.Metrics)
		return res, nil
	}

	// A traced run measures the same inputs twice, half the time each:
	// untraced, then with the registries, flight recorder and spans
	// attached. The difference is the tracing overhead; the per-layer
	// numbers come from the traced half.
	half := params{seed: p.seed, seconds: p.seconds / 2, tiny: p.tiny}
	plain, _, _, err := setUp(w, half, &probe{}, 1)
	if err != nil {
		return nil, err
	}
	a := measure(plain, half.window())
	plain.close()

	pr := newProbe()
	inst, _, _, err := setUp(w, half, pr, 1)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	pr.mark()
	start := time.Now()
	b := measure(inst, half.window())
	pr.spans.finish(pr.root, 0, 0, "workload", start, time.Now())
	res := summarize(stdout, w, half, b)
	for _, msg := range wrongAnswers(a.phase) {
		res.Correct = false
		fmt.Fprintf(stdout, "  WRONG (untraced pass) %s\n", msg)
	}
	res.Trace = true

	in := inst.layers()
	in.warm = pr.since(pr.warm)
	in.server = pr.since(pr.server)
	in.ph, in.mem, in.spans = b.phase, b.mem, pr.spans
	in.overhead = overheadPct(a, b)
	in.flightKind = pr.flightKinds()
	lm := layerMetrics(in)
	res.Metrics = map[string]metric{}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{lm[d.Name], d.Unit}
	}
	printLayerTable(stdout, in, lm)
	if spansPath != "" {
		if err := pr.spans.write(spansPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "  wrote %d spans to %s\n", len(pr.spans.list), spansPath)
	}
	return res, nil
}

// summarize computes a measured phase's end-to-end metrics, prints the
// per-kind latencies, failures and answers digest, and returns the result.
func summarize(stdout io.Writer, w workload, p params, ph measurement) *result {
	wrong := wrongAnswers(ph.phase)
	res := &result{
		Workload: w.name, Seed: p.seed, Correct: len(wrong) == 0,
		Attempted: len(ph.ops) + ph.sat.n, Metrics: map[string]metric{}, Named: map[string]metric{},
	}
	byKind := map[string][]float64{}
	var timed, raw []float64 // timed latencies at reference speed, and as measured
	var busy, rawBusy float64
	failures := map[string]int{}
	for _, o := range ph.ops {
		switch {
		case o.fail != "":
			res.Failed++
			failures[o.kind+": "+o.fail]++
			continue
		case o.wrong != "":
			res.Failed++
		}
		lat := ms(o.latency())
		byKind[o.kind] = append(byKind[o.kind], lat)
		if o.timed {
			scaled := lat * ph.ref.speedAt(o.end)
			timed, raw = append(timed, scaled), append(raw, lat)
			busy, rawBusy = busy+scaled/1e3, rawBusy+lat/1e3
		}
	}
	for why, n := range ph.sat.failed {
		failures["saturation "+why] += n
	}
	res.Failed += ph.sat.bad
	p50, err50 := percentile(timed, 50)
	rawP50, _ := percentile(raw, 50)
	throughput, rawThroughput := ratio(float64(len(timed)), busy), ratio(float64(len(raw)), rawBusy)
	if len(ph.sat.rounds) > 0 {
		throughput, rawThroughput = saturationRate(ph.sat.rounds, ph.ref)
		res.Named["saturation_rps"] = metric{rawThroughput, "1/s"}
	}
	res.Metrics["p50_ms"] = metric{p50.Value, "ms"}
	res.Metrics["ops_per_s"] = metric{throughput, "1/s"}
	res.Metrics["heap_mean_mb"] = metric{ph.mem.heapMeanMB, "MB"}
	res.Named["raw_p50_ms"] = metric{rawP50.Value, "ms"}
	res.Named["raw_ops_per_s"] = metric{rawThroughput, "1/s"}
	res.Named["ref_speed"] = metric{ph.ref.speed(), "ratio"}

	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		lat := byKind[k]
		med, _ := percentile(lat, 50)
		res.Named[k+"_p50_ms"] = metric{med.Value, "ms"}
		line := fmt.Sprintf("p50 %.3f ms", med.Value)
		if hi, err := highestPercentile(lat); err == nil && hi.P > 50 {
			res.Named[fmt.Sprintf("%s_p%g_ms", k, hi.P)] = metric{hi.Value, "ms"}
			line += fmt.Sprintf(", p%g %.3f ms (%d beyond)", hi.P, hi.Value, hi.Beyond)
		}
		fmt.Fprintf(stdout, "  %-12s n=%-6d %s\n", k, len(lat), line)
	}
	res.Named["fail_ratio"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	res.Named["heap_peak_mb"] = metric{ph.mem.peakMB, "MB"}
	fmt.Fprintf(stdout, "  attempted %d, failed %d, backlog at end of schedule %d\n", res.Attempted, res.Failed, ph.backlog)
	for f, n := range failures {
		fmt.Fprintf(stdout, "  FAILED ×%d %s\n", n, f)
	}
	for i, msg := range wrong {
		if i == 10 {
			fmt.Fprintf(stdout, "  … %d more wrong answers\n", len(wrong)-10)
			break
		}
		fmt.Fprintf(stdout, "  WRONG %s\n", msg)
	}
	if err50 != nil {
		fmt.Fprintf(stdout, "  WARNING latency sample too thin: %v\n", err50)
	}
	if late := lateP99(ph.ops); late > 1 {
		fmt.Fprintf(stdout, "  WARNING generator late p99 %.3f ms > 1 ms: open-loop latencies are suspect\n", late)
	}
	var n int
	res.Digest, n = digest(ph.ops)
	fmt.Fprintf(stdout, "  answers digest %s over %d answers\n", res.Digest, n)
	printMetrics(stdout, "also", res.Named)
	return res
}

// saturationRate is the saturation phase's rate of correct answers: at
// reference speed, the median over its rounds of each round's rate at the
// machine speed around it; raw, over the whole phase.
func saturationRate(rounds []satRound, ref *refClock) (scaled, raw float64) {
	var rates []float64
	var ok int
	var busy time.Duration
	for _, r := range rounds {
		rates = append(rates, ratio(float64(r.ok), r.busy.Seconds())/ref.speedAt(r.end.Add(-r.busy/2)))
		ok += r.ok
		busy += r.busy
	}
	return median(rates), ratio(float64(ok), busy.Seconds())
}

// wrongAnswers lists the phase's wrong answers, one message each (the
// saturation phase's by reason, with a count).
func wrongAnswers(ph phase) []string {
	var wrong []string
	for _, o := range ph.ops {
		if o.fail == "" && o.wrong != "" {
			wrong = append(wrong, fmt.Sprintf("%s %d: %s", o.kind, o.idx, o.wrong))
		}
	}
	if ph.sat.wrong > 0 {
		wrong = append(wrong, fmt.Sprintf("%d saturation requests answered wrongly", ph.sat.wrong))
	}
	return wrong
}

// lateP99 is how late the generator issued its timed operations, p99.
func lateP99(ops []op) float64 {
	late := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.timed {
			late = append(late, ms(o.late()))
		}
	}
	r, _ := percentile(late, 99)
	return r.Value
}

// digest hashes, in schedule order, the answers kept for it: those of the
// timed operations among the first digestOps. It returns the hash and how
// many answers it covers.
func digest(ops []op) (string, int) {
	var answers []op
	for _, o := range ops {
		if o.timed && o.answer != "" {
			answers = append(answers, o)
		}
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].idx < answers[j].idx })
	h := sha256.New()
	for _, o := range answers {
		fmt.Fprintln(h, o.idx, o.answer)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], len(answers)
}

// overheadPct compares the mean latency, at reference speed, of the
// operations both passes of a traced run completed, traced against
// untraced, in percent.
func overheadPct(plain, traced measurement) float64 {
	latencies := func(m measurement) map[int]float64 {
		out := map[int]float64{}
		for _, o := range m.ops {
			if o.timed && o.fail == "" {
				out[o.idx] = ms(o.latency()) * m.ref.speedAt(o.end)
			}
		}
		return out
	}
	a, b := latencies(plain), latencies(traced)
	var sa, sb float64
	for idx, v := range a {
		if w, ok := b[idx]; ok {
			sa += v
			sb += w
		}
	}
	if sa == 0 {
		return 0
	}
	return 100 * (sb/sa - 1)
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "    %-16s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append result: %w", err)
	}
	return f.Close()
}
