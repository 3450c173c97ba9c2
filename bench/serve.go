package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/serve"
	"github.com/edsec/edattack/internal/sweep"
	"github.com/edsec/edattack/internal/telemetry"
)

// Pool sizes and the per-kind payload shapes of the serve workloads.
const (
	evalPoolSize   = 256
	attackPoolSize = 8
	sweepPoolSize  = 16
	sweepDraws     = 16
	satShare       = 0.4 // share of a serve run spent in the saturation phase
	satClients     = 4   // closed-loop clients: twice the server's default workers on 2 CPUs
)

var (
	sweepHours      = []float64{0, 12}
	sweepMagnitudes = []float64{0, 0.2}
)

// limits is each kind's latency limit: the request carries it as its
// deadline, and an answer later than it (timed from the due time) fails.
var limits = map[string]time.Duration{
	kindEvaluate: time.Second,
	kindSweep:    5 * time.Second,
	kindAttack:   30 * time.Second,
}

// serveSpec configures a serve workload: an open-loop phase at rate (at
// reference speed) over a mix dealt in blocks, then a closed-loop
// saturation phase on the same mix.
type serveSpec struct {
	rate                            float64
	block                           []share
	evalCase, sweepCase, attackCase string
}

// payloads are a serve workload's seeded inputs: the networks, the pools
// each kind draws from, the marshalled request bodies, and the schedule.
type payloads struct {
	nets       map[string]*grid.Network
	evalPool   []map[int]float64
	attackPool []map[int]float64
	sweepSeeds []int64
	bodies     map[request][]byte
	st         *stream
}

func newPayloads(spec serveSpec, seed int64) (*payloads, error) {
	pl := &payloads{nets: map[string]*grid.Network{}, bodies: map[request][]byte{}}
	for _, name := range []string{spec.evalCase, spec.sweepCase, spec.attackCase} {
		if name == "" || pl.nets[name] != nil {
			continue
		}
		net, err := cases.Load(name)
		if err != nil {
			return nil, err
		}
		pl.nets[name] = net
	}
	sizes := map[string]int{}
	for _, sh := range spec.block {
		switch sh.kind {
		case kindEvaluate:
			rng := rngFor(seed, "evaluate-pool")
			for i := 0; i < evalPoolSize; i++ {
				dlr := drawDLR(rng, pl.nets[spec.evalCase], 0.97, 1.10)
				pl.evalPool = append(pl.evalPool, dlr)
				pl.bodies[request{kindEvaluate, i}] = body(map[string]any{"case": spec.evalCase, "dlr": dlr}, kindEvaluate)
			}
			sizes[kindEvaluate] = evalPoolSize
		case kindSweep:
			rng := rngFor(seed, "sweep-pool")
			for i := 0; i < sweepPoolSize; i++ {
				sweepSeed := rng.Int63n(1 << 31)
				pl.sweepSeeds = append(pl.sweepSeeds, sweepSeed)
				pl.bodies[request{kindSweep, i}] = body(map[string]any{
					"case": spec.sweepCase, "hours": sweepHours, "magnitudes": sweepMagnitudes,
					"draws": sweepDraws, "seed": sweepSeed,
				}, kindSweep)
			}
			sizes[kindSweep] = sweepPoolSize
		case kindAttack:
			rng := rngFor(seed, "attack-pool")
			attack := map[string]any{"case": spec.attackCase, "max_nodes": 40, "rel_gap": 1e-3}
			pl.bodies[request{kindAttack, -1}] = body(attack, kindAttack)
			for i := 0; i < attackPoolSize; i++ {
				ud := drawDLR(rng, pl.nets[spec.attackCase], 0.95, 1.05)
				pl.attackPool = append(pl.attackPool, ud)
				attack["true_dlr"] = ud
				pl.bodies[request{kindAttack, i}] = body(attack, kindAttack)
			}
			sizes[kindAttack] = attackPoolSize
		}
	}
	pl.st = newStream(seed, spec.block, sizes)
	return pl, nil
}

// serveInst drives an in-process edserve through Server.Handler(): no
// sockets, so the numbers are the daemon's, not the loopback stack's.
type serveInst struct {
	*payloads
	spec serveSpec
	pr   *probe
	srv  *serve.Server
	lib  map[request]libAnswer // set by prepare

	mu   sync.Mutex
	uses map[request]float64 // measured requests answered, by input
}

func startServe(spec serveSpec, p params, pr *probe) (instance, error) {
	pl, err := newPayloads(spec, p.seed)
	if err != nil {
		return nil, err
	}
	s := &serveInst{payloads: pl, spec: spec, pr: pr}
	s.srv = serve.New(serve.Config{Metrics: pr.server, Flight: pr.flight})

	// Warm the daemon as traffic would before timing: build each topology,
	// warm the evaluate path, and prime the static-rating dispatch memo
	// that the memo attacks hit.
	var warm []request
	for _, sh := range spec.block {
		switch sh.kind {
		case kindEvaluate:
			for i := 0; i < 32; i++ {
				warm = append(warm, request{kindEvaluate, i})
			}
		case kindSweep:
			warm = append(warm, request{kindSweep, 0})
		case kindAttack:
			warm = append(warm, request{kindAttack, -1})
		}
	}
	t0 := time.Now()
	for i, r := range warm {
		if o := s.fire(r, i, t0, time.Since(t0), false); o.fail != "" {
			s.close()
			return nil, fmt.Errorf("set-up %s request: %s", r.kind, o.fail)
		}
	}
	return s, nil
}

// body marshals a request, adding the kind's latency limit as its deadline.
func body(fields map[string]any, kind string) []byte {
	fields["deadline_ms"] = limits[kind].Milliseconds()
	b, err := json.Marshal(fields)
	if err != nil {
		panic(err) // only maps of numbers and strings are marshalled
	}
	return b
}

// event mirrors one NDJSON line of the serve stream.
type event struct {
	Event      string        `json:"event"`
	Code       string        `json:"code"`
	Error      string        `json:"error"`
	Attack     *servedAttack `json:"attack"`
	Evaluation *servedEval   `json:"evaluation"`
	Sweep      *servedSweep  `json:"sweep"`
	WallMS     float64       `json:"wall_ms"`
	QueueMS    float64       `json:"queue_ms"`
	SolveMS    float64       `json:"solve_ms"`
}

type servedAttack struct {
	TargetLine int             `json:"target_line"`
	Direction  int             `json:"direction"`
	GainPct    float64         `json:"gain_pct"`
	DLR        map[int]float64 `json:"dlr"`
	Exact      bool            `json:"exact"`
}

type servedEval struct {
	Feasible  bool    `json:"feasible"`
	GainPct   float64 `json:"gain_pct"`
	WorstLine int     `json:"worst_line"`
	Direction int     `json:"direction"`
	Cost      float64 `json:"cost"`
}

type servedSweep struct {
	Scenarios  int     `json:"scenarios"`
	Dangerous  int     `json:"dangerous"`
	Detected   int     `json:"detected"`
	Success    int     `json:"success"`
	Rate       float64 `json:"success_rate"`
	MeanCost   float64 `json:"mean_cost"`
	MergedJobs int     `json:"merged_jobs"`
}

// Answer texts render a result exactly (floats by their bits), so a served
// answer and the library path's compare as strings. A sweep's text leaves
// out how many requests shared its pass.
func evalAnswer(feasible bool, gain float64, worst, dir int, cost float64) string {
	return fmt.Sprintf("evaluate %v %x %d %d %x", feasible, math.Float64bits(gain), worst, dir, math.Float64bits(cost))
}

func sweepAnswer(w servedSweep) string {
	return fmt.Sprintf("sweep %d %d %d %d %x %x", w.Scenarios, w.Dangerous, w.Detected, w.Success,
		math.Float64bits(w.Rate), math.Float64bits(w.MeanCost))
}

// fire sends one request through the handler and waits for its stream to
// end. Times are offsets from t0; due is when the request was scheduled.
// Once prepare has run, the answer is checked as it arrives.
func (s *serveInst) fire(r request, idx int, t0 time.Time, due time.Duration, timed bool) op {
	o := op{idx: idx, kind: r.kind, req: r, timed: timed, timing: timing{due: due}}
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/"+r.kind, bytes.NewReader(s.bodies[r]))
	rec := httptest.NewRecorder()
	o.sent = time.Since(t0)
	s.srv.Handler().ServeHTTP(rec, httpReq)
	o.done = time.Since(t0)
	o.end = t0.Add(o.done)
	answer, fail := s.parse(&o, rec)
	o.fail = fail
	if o.fail == "" && o.latency() > limits[r.kind] {
		o.fail = fmt.Sprintf("late: %.0f ms after due, limit %v", ms(o.latency()), limits[r.kind])
	}
	if answer != "" && s.lib != nil {
		s.verify(&o, answer)
	}
	s.record(&o, t0)
	return o
}

// verify compares a served answer bit for bit with the library path's
// answer to the same input, and counts the input's use.
func (s *serveInst) verify(o *op, answer string) {
	if want := s.lib[o.req].text; answer != want {
		o.wrong = fmt.Sprintf("served %q, library path %q", answer, want)
	}
	if o.idx < digestOps {
		o.answer = answer
	}
	s.mu.Lock()
	s.uses[o.req]++
	s.mu.Unlock()
}

// parse reads the NDJSON stream into o's timings, returning the answer text
// ("" without a result) and why the request failed ("" when it produced a
// result).
func (s *serveInst) parse(o *op, rec *httptest.ResponseRecorder) (answer, fail string) {
	if rec.Code != http.StatusOK {
		return "", fmt.Sprintf("status %d", rec.Code)
	}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	fail = "stream ended without a result"
	var res *event
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", "bad stream line: " + err.Error()
		}
		switch ev.Event {
		case "result":
			res = &ev
			o.queueMS, o.solveMS = ev.QueueMS, ev.SolveMS
			o.solve = time.Duration(ev.SolveMS * float64(time.Millisecond))
			fail = ""
		case "error":
			fail = "error event " + ev.Code + ": " + ev.Error
		case "done":
			o.wallMS = ev.WallMS
		}
	}
	switch {
	case res == nil:
		return "", fail
	case res.Evaluation != nil:
		e := res.Evaluation
		answer = evalAnswer(e.Feasible, e.GainPct, e.WorstLine, e.Direction, e.Cost)
	case res.Sweep != nil:
		o.merged = res.Sweep.MergedJobs
		answer = sweepAnswer(*res.Sweep)
	case res.Attack != nil:
		a := res.Attack
		answer = attackAnswer(&core.Attack{TargetLine: a.TargetLine, Direction: a.Direction, GainPct: a.GainPct, DLR: a.DLR, Exact: a.Exact})
	default:
		return "", "result without a payload"
	}
	return answer, fail
}

// record rebuilds the request's spans from its timings and the stream's
// event timings: generator wait, then the handler with queue, lock wait
// (wall − queue − solve), and solve inside it.
func (s *serveInst) record(o *op, t0 time.Time) {
	spans := s.pr.spans
	if spans == nil {
		return
	}
	req := int64(o.idx + 1)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	id := spans.reserve()
	spans.add(id, req, "gen.wait", at(o.due), at(o.sent))
	h := spans.reserve()
	if o.wallMS > 0 {
		q := at(o.sent + msd(o.queueMS))
		solveStart := at(o.sent + msd(o.wallMS-o.solveMS))
		spans.add(h, req, "serve.queue", at(o.sent), q)
		spans.add(h, req, "serve.lock", q, solveStart)
		spans.add(h, req, "serve.solve."+o.kind, solveStart, at(o.sent+msd(o.wallMS)))
	}
	spans.finish(h, id, req, "serve.ServeHTTP", at(o.sent), at(o.done))
	spans.finish(id, s.pr.root, req, "op."+o.kind, at(o.due), at(o.done))
}

// measure runs the open-loop phase, then the saturation phase, each in
// rounds of refEvery: a round's requests all finish before the reference is
// timed and the next round starts, so the daemon is idle for a few
// milliseconds a second.
//
// The open-loop rate is set at reference speed, like every time metric: a
// round offers rate × the speed measured so far. In a slow spell the daemon
// is offered proportionally less, so it runs at the same share of its
// capacity in every run. At a fixed 40 rps, serve-mixed's latency grew far
// faster than the machine slowed (its evaluate p95 went from 12 to 65 ms
// between spells at 0.64 and 0.56 of reference speed), which no scaling of
// the result can undo.
func (s *serveInst) measure(d time.Duration, ref *refClock) phase {
	open := time.Duration(float64(d) * (1 - satShare))
	rounds := max(1, int(open/refEvery))
	ph := phase{sat: saturation{failed: map[string]int{}}}
	for r := 0; r < rounds; r++ {
		rate := s.spec.rate * ref.speed()
		ops, backlog := s.openLoop(s.st.take(max(1, int(rate*refEvery.Seconds()))), rate, len(ph.ops))
		ph.ops = append(ph.ops, ops...)
		ph.backlog = max(ph.backlog, backlog)
		ref.tick()
	}
	for left := d - open; left > 0; left -= refEvery {
		t, ok := time.Now(), ph.sat.n-ph.sat.bad
		s.saturate(min(left, refEvery), &ph.sat, len(ph.ops)+ph.sat.n)
		end := time.Now()
		ph.sat.rounds = append(ph.sat.rounds, satRound{ok: ph.sat.n - ph.sat.bad - ok, busy: end.Sub(t), end: end})
		ref.tick()
	}
	return ph
}

// openLoop sends reqs at a fixed rate regardless of completions, numbering
// them from firstIdx. It returns the operations and the backlog: requests
// still unanswered when the schedule ended.
func (s *serveInst) openLoop(reqs []request, rate float64, firstIdx int) ([]op, int) {
	interval := time.Duration(float64(time.Second) / rate)
	ops := make([]op, len(reqs))
	var wg sync.WaitGroup
	var inflight atomic.Int64
	t0 := time.Now()
	for i, r := range reqs {
		due := time.Duration(i) * interval
		waitUntil(t0.Add(due))
		inflight.Add(1)
		wg.Add(1)
		go func(i int, r request, due time.Duration) {
			defer wg.Done()
			ops[i] = s.fire(r, firstIdx+i, t0, due, true)
			inflight.Add(-1)
		}(i, r, due)
	}
	waitUntil(t0.Add(time.Duration(len(reqs)) * interval))
	backlog := int(inflight.Load())
	wg.Wait()
	return ops, backlog
}

// sleepOvershoot is how far past its deadline a sleep typically wakes on a
// 2-vCPU VM (~0.6 ms; a 50 µs sleep takes 1 ms). An open-loop generator
// that slept to each due time would start every request that late, and
// due-time latency would charge it to the daemon.
const sleepOvershoot = 700 * time.Microsecond

// waitUntil returns at t: it sleeps to sleepOvershoot short of it, then
// yields the processor in a loop for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepOvershoot; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// saturate runs satClients closed-loop clients on the continuing request
// stream for d, numbering requests from firstIdx, and counts their
// requests into sat once all have finished.
func (s *serveInst) saturate(d time.Duration, sat *saturation, firstIdx int) {
	var mu sync.Mutex
	idx := firstIdx
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < satClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Since(t0)
			for due < d {
				mu.Lock()
				r, i := s.st.next(), idx
				idx++
				mu.Unlock()
				o := s.fire(r, i, t0, due, false)
				mu.Lock()
				sat.count(o)
				mu.Unlock()
				due = o.done
			}
		}()
	}
	wg.Wait()
}

// libAnswer is the library path's answer to one pooled input, as answer
// text, with the solver work and time it took.
type libAnswer struct {
	text string
	work tally
	secs float64
}

// prepare computes the library path's answer to every pooled input, on the
// same topologies as the daemon, for fire to compare served answers with;
// library attacks are also replayed through EvaluateAttack. In a traced pass
// the library carries the solver registry: the daemon's own dispatch model
// takes no registry through the public API, so its dispatch and QP work is
// counted as the library's work per input, weighted by how many measured
// requests carried the input.
func (s *serveInst) prepare() error {
	lib, err := s.newLibrary()
	if err != nil {
		return fmt.Errorf("library path: %w", err)
	}
	reqs := make([]request, 0, len(s.bodies))
	for r := range s.bodies {
		reqs = append(reqs, r)
	}
	// One order for every run: the library's memo and warm bases make an
	// attack's work depend on the attacks before it.
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].kind != reqs[j].kind {
			return reqs[i].kind < reqs[j].kind
		}
		return reqs[i].pool < reqs[j].pool
	})
	s.lib = make(map[request]libAnswer, len(reqs))
	for _, r := range reqs {
		s.lib[r] = lib.answer(r)
	}
	s.uses = map[request]float64{}
	return nil
}

// library holds the reference path: its own models, Knowledge and sweep
// precomputation, built from the same cases as the daemon's.
type library struct {
	s       *serveInst
	evalK   *core.Knowledge
	attackM *dispatch.Model
	checker *dispatch.Model // replays attacks, outside the registry
	statics *core.Knowledge
	warm    *core.WarmCache
	pc      *sweep.Precomp
}

func (s *serveInst) newLibrary() (*library, error) {
	l := &library{s: s}
	reg := s.pr.solver
	if net := s.nets[s.spec.evalCase]; net != nil && s.evalPool != nil {
		m, err := dispatch.BuildModel(net)
		if err != nil {
			return nil, err
		}
		m.Metrics = reg
		if l.evalK, err = core.NewKnowledge(m, staticDLR(net)); err != nil {
			return nil, err
		}
	}
	if net := s.nets[s.spec.attackCase]; net != nil && s.attackPool != nil {
		m, err := dispatch.BuildModel(net)
		if err != nil {
			return nil, err
		}
		l.attackM = m
		if l.checker, err = dispatch.BuildModel(net); err != nil {
			return nil, err
		}
		if l.statics, err = core.NewKnowledge(m, staticDLR(net)); err != nil {
			return nil, err
		}
		// Prime the static-rating memo and the warm bases the way the
		// daemon's set-up did, before the registry is attached.
		l.warm = core.NewWarmCache()
		if _, err := core.FindOptimalAttack(l.statics, l.options(nil)); err != nil {
			return nil, err
		}
		m.Metrics = reg
		l.warm.Metrics = reg
	}
	if net := s.nets[s.spec.sweepCase]; net != nil && s.sweepSeeds != nil {
		var err error
		if l.pc, err = sweep.Precompute(net); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *library) options(reg *telemetry.Registry) core.Options {
	o := servingOptions()
	o.Warm, o.Metrics = l.warm, reg
	return o
}

// answer computes the library's answer to one request's input, with the
// solver work and time it took; attacks are then replayed. A failure
// becomes the answer text, so every served answer to that input mismatches.
func (l *library) answer(r request) libAnswer {
	reg := l.s.pr.solver
	before := readTally(reg)
	start := time.Now()
	var ref libAnswer
	var nodes tally
	var err error
	switch r.kind {
	case kindEvaluate:
		var ev *core.Evaluation
		if ev, err = l.evalK.EvaluateAttack(l.s.evalPool[r.pool]); err == nil {
			cost := 0.0
			if ev.Dispatch != nil {
				cost = ev.Dispatch.Cost
			}
			ref.text = evalAnswer(ev.Feasible, ev.GainPct, ev.WorstLine, ev.Direction, cost)
		}
	case kindAttack:
		k := l.statics
		if r.pool >= 0 {
			k, err = core.NewKnowledge(l.attackM, l.s.attackPool[r.pool])
		}
		var att *core.Attack
		if err == nil {
			att, err = core.FindOptimalAttack(k, l.options(reg))
		}
		if err == nil {
			ref.text = attackAnswer(att)
			nodes = tally{"attack_nodes": float64(att.Stats.Nodes), "attack_warm_nodes": float64(att.Stats.WarmNodes)}
			if msg := replay(l.checker, k.TrueDLR, att); msg != "" {
				ref.text = "library attack fails its replay: " + msg
			}
		}
	case kindSweep:
		var w servedSweep
		if w, err = l.sweep(l.s.sweepSeeds[r.pool]); err == nil {
			ref.text = sweepAnswer(w)
		}
	}
	ref.secs = time.Since(start).Seconds()
	ref.work = readTally(reg).minus(before)
	ref.work.addScaled(nodes, 1)
	if err != nil {
		ref.text = "library path error: " + err.Error()
	}
	return ref
}

// sweep runs the library path for one sweep request: the same scenario
// generation and batched evaluation the daemon runs, aggregated the same
// way.
func (l *library) sweep(seed int64) (servedSweep, error) {
	scs, _, err := sweep.GenScenarios(l.pc, sweep.SurfaceConfig{
		Hours: sweepHours, Magnitudes: sweepMagnitudes, Draws: sweepDraws, Seed: seed,
	})
	if err != nil {
		return servedSweep{}, err
	}
	outs, err := sweep.Eval(l.pc, scs, sweep.Options{})
	if err != nil {
		return servedSweep{}, err
	}
	var res servedSweep
	var cost float64
	for _, out := range outs {
		res.Scenarios++
		if out.Dangerous {
			res.Dangerous++
		}
		if out.Detected {
			res.Detected++
		}
		if out.Success {
			res.Success++
		}
		cost += out.Cost
	}
	if res.Scenarios > 0 {
		res.Rate = float64(res.Success) / float64(res.Scenarios)
		res.MeanCost = cost / float64(res.Scenarios)
	}
	return res, nil
}

// layers weights each input's library work by how many measured requests
// carried it. Sweeps are counted as operations but their work is not: the
// daemon's registry counts the sweep layer itself.
func (s *serveInst) layers() layerInputs {
	in := layerInputs{solver: tally{}}
	for r, n := range s.uses {
		in.solverOps += n
		if r.kind == kindSweep {
			continue
		}
		in.solver.addScaled(s.lib[r].work, n)
		in.solverSec += s.lib[r].secs * n
	}
	return in
}

func (s *serveInst) close() { s.srv.Close() }
