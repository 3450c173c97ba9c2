package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/sweep"
	"github.com/edsec/edattack/internal/telemetry"
)

// jobKind tags the three request families.
type jobKind string

const (
	kindAttack   jobKind = "attack"
	kindEvaluate jobKind = "evaluate"
	kindSweep    jobKind = "sweep"
)

// jobRequest is the union request body. Fields are per kind:
//
//	attack:   case, max_nodes, max_rounds, rel_gap, true_dlr, deadline_ms
//	evaluate: case, dlr, true_dlr, deadline_ms
//	sweep:    case, hours, magnitudes, draws, seed, deadline_ms
//
// true_dlr defaults to the static ratings of the case's DLR lines (the
// paper's convention); dlr is the manipulated-rating vector to evaluate.
// deadline_ms may only shorten Config.DefaultDeadline; it and the attack
// budgets max_nodes and max_rounds (0 = solver default) must not be
// negative.
type jobRequest struct {
	Case       string          `json:"case"`
	DeadlineMS int64           `json:"deadline_ms"`
	MaxNodes   int             `json:"max_nodes"`
	MaxRounds  int             `json:"max_rounds"`
	RelGap     float64         `json:"rel_gap"`
	TrueDLR    map[int]float64 `json:"true_dlr"`
	DLR        map[int]float64 `json:"dlr"`
	Hours      []float64       `json:"hours"`
	Magnitudes []float64       `json:"magnitudes"`
	Draws      int             `json:"draws"`
	Seed       int64           `json:"seed"`
}

// streamEvent is one NDJSON response line.
type streamEvent struct {
	Event      string        `json:"event"`
	Job        string        `json:"job"`
	Kind       string        `json:"kind,omitempty"`
	Error      string        `json:"error,omitempty"`
	Code       string        `json:"code,omitempty"`
	Attack     *attackResult `json:"attack,omitempty"`
	Evaluation *evalResult   `json:"evaluation,omitempty"`
	Sweep      *sweepResult  `json:"sweep,omitempty"`
	WallMS     float64       `json:"wall_ms,omitempty"`
	QueueMS    float64       `json:"queue_ms,omitempty"`
	SolveMS    float64       `json:"solve_ms,omitempty"`
}

// attackResult is the attack endpoint's result payload.
type attackResult struct {
	TargetLine    int             `json:"target_line"`
	Direction     int             `json:"direction"`
	GainPct       float64         `json:"gain_pct"`
	DLR           map[int]float64 `json:"dlr"`
	Exact         bool            `json:"exact"`
	Nodes         int             `json:"nodes"`
	Rounds        int             `json:"rounds"`
	PredictedCost float64         `json:"predicted_cost"`
	WarmBases     int             `json:"warm_bases"`
}

// evalResult is the evaluate endpoint's result payload.
type evalResult struct {
	Feasible  bool    `json:"feasible"`
	GainPct   float64 `json:"gain_pct"`
	WorstLine int     `json:"worst_line"`
	Direction int     `json:"direction"`
	Cost      float64 `json:"cost,omitempty"`
}

// sweepResult is the sweep endpoint's result payload.
type sweepResult struct {
	Scenarios int     `json:"scenarios"`
	Dangerous int     `json:"dangerous"`
	Detected  int     `json:"detected"`
	Success   int     `json:"success"`
	Rate      float64 `json:"success_rate"`
	MeanCost  float64 `json:"mean_cost"`
	// MergedJobs is always 1: each sweep runs its own Eval. The field
	// stays because clients parse it, and the benchmark's
	// serve.batch_merged_mean is its mean.
	MergedJobs int     `json:"merged_jobs"`
	EvalMS     float64 `json:"eval_ms"`
}

// job is one admitted request flowing through the pipeline. The worker
// running it sends at most a handful of events into out and closes it
// exactly once; the handler drains until close.
type job struct {
	id       string
	kind     jobKind
	req      jobRequest
	ctx      context.Context
	cancel   context.CancelFunc
	accepted time.Time
	out      chan streamEvent
}

// jobPool recycles job structs across requests. The out channel is the one
// field that cannot be reused (it is closed per job), so each checkout gets
// a fresh channel; putJob zeroes the struct so a pooled job never pins a
// finished request's maps or context.
var jobPool = sync.Pool{New: func() any { return new(job) }}

// putJob returns a drained job to the pool. Callers must be past the
// executor's close(j.out): the handler only calls this after the range over
// out ends, at which point no other goroutine holds the job.
func putJob(j *job) {
	*j = job{}
	jobPool.Put(j)
}

// maxRequestBytes caps a job request body. A full-precision dlr plus
// true_dlr map over all 1,606 lines of grow1000, the largest built-in case,
// is about 81 KB, so the cap leaves a dozen times that in headroom while a
// hostile body can no longer be read into memory without bound.
const maxRequestBytes = 1 << 20

// newJob parses and validates a request body into an admitted-ready job.
// The returned int is the HTTP status for a rejection.
func (s *Server) newJob(kind jobKind, w http.ResponseWriter, r *http.Request) (*job, int, error) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxRequestBytes)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	// Canonicalize so "Case118" and "case118" share one topology bundle
	// (cases.Load is itself case-insensitive).
	req.Case = strings.ToLower(strings.TrimSpace(req.Case))
	if req.Case == "" {
		return nil, http.StatusBadRequest, errors.New("missing required field: case")
	}
	if kind == kindEvaluate && len(req.DLR) == 0 {
		return nil, http.StatusBadRequest, errors.New("evaluate needs a dlr rating map")
	}
	if req.DeadlineMS < 0 || req.MaxNodes < 0 || req.MaxRounds < 0 {
		return nil, http.StatusBadRequest, errors.New("deadline_ms, max_nodes and max_rounds must not be negative")
	}
	// A request may shorten the server's deadline but never extend it.
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 && req.DeadlineMS < deadline.Milliseconds() {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	j := jobPool.Get().(*job)
	*j = job{
		id:       s.nextID(),
		kind:     kind,
		req:      req,
		ctx:      ctx,
		cancel:   cancel,
		accepted: time.Now(),
		out:      make(chan streamEvent, 4),
	}
	return j, 0, nil
}

// finish sends the job's terminal event and closes its stream. After it
// returns the handler may recycle the job, so the worker must not touch j
// again.
func (j *job) finish(ev streamEvent) {
	j.out <- ev
	close(j.out)
}

// fail emits one error event and closes the job's stream.
func (j *job) fail(code, msg string) {
	j.finish(errorEvent(code, msg))
}

// errorEvent is a terminal error event with a stream error code.
func errorEvent(code, msg string) streamEvent {
	return streamEvent{Event: "error", Code: code, Error: msg}
}

// solveErrorEvent maps solver errors onto stream error codes; context
// errors keep their identity so clients can tell a deadline from a crash,
// and a rating map the EMS bound check rejects is the client's error.
func solveErrorEvent(err error) streamEvent {
	switch {
	case errors.Is(err, core.ErrDLRBounds):
		return errorEvent("bad_request", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		return errorEvent("deadline_exceeded", err.Error())
	case errors.Is(err, context.Canceled):
		return errorEvent("canceled", err.Error())
	case errors.Is(err, core.ErrNoFeasibleAttack):
		return errorEvent("no_feasible_attack", err.Error())
	default:
		return errorEvent("internal", err.Error())
	}
}

// workerLoop runs admitted jobs until the server closes. A job picked up
// after Close began fails like every other queued job.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case j := <-s.admit:
			s.queueGauge()
			select {
			case <-s.closed:
				j.fail("unavailable", "server shutting down")
			default:
				j.execute(s)
			}
		}
	}
}

// testHookSolve, when set (only by tests), runs at the start of every
// job's solve phase — under the topology lock for attack and evaluation
// jobs, before scenario generation for sweeps — so a test can inject a
// panic or park a worker there.
var testHookSolve func(kind jobKind)

// recoverPanic is deferred by execute. When a panic is unwinding it stops
// it there, so one bad job cannot kill the daemon: it counts
// serve_panics_total, records a flight event carrying the value and the
// stack, and calls answer, which fails the job with code "internal" (the
// handler then sends done).
func (s *Server) recoverPanic(answer func(msg string)) {
	v := recover()
	if v == nil {
		return
	}
	msg := fmt.Sprintf("internal error: panic: %v", v)
	s.counter("serve_panics_total")
	if fl := s.cfg.Flight; fl != nil {
		fl.Record(telemetry.FlightEvent{
			Kind:  telemetry.FlightPanic,
			Label: msg + "\n" + string(debug.Stack()),
		})
	}
	answer(msg)
}

// execute runs a job and answers it. A panic anywhere before the answer is
// turned into an internal error.
func (j *job) execute(s *Server) {
	defer s.recoverPanic(func(msg string) { j.fail("internal", msg) })
	j.finish(j.run(s))
}

// run executes a job against its topology's shared state and returns its
// terminal event. The topology lock serializes model-touching solves — the
// dispatch model is warm-started and not safe for concurrent use — while
// sweeps, which never touch the model, run beside them, and jobs on other
// topologies proceed on other workers.
func (j *job) run(s *Server) streamEvent {
	queued := time.Since(j.accepted)
	if err := j.ctx.Err(); err != nil {
		return solveErrorEvent(fmt.Errorf("expired in queue after %s: %w", queued.Round(time.Millisecond), err))
	}
	entry, err := s.topos.get(j.req.Case)
	if err != nil {
		return errorEvent("bad_request", err.Error())
	}
	var pc *sweep.Precomp
	solved := false
	if j.kind == kindSweep {
		if pc, err = s.topos.precomp(entry); err != nil {
			return errorEvent("internal", err.Error())
		}
	} else {
		entry.mu.Lock()
		defer func() {
			if !solved {
				// A panic is unwinding through this solve: the state the
				// model's workspace retains can no longer be trusted, so
				// it is dropped before the entry serves again.
				entry.model.Workspace.Reset()
			}
			entry.mu.Unlock()
		}()
	}
	if testHookSolve != nil {
		testHookSolve(j.kind)
	}
	solveStart := time.Now()
	var ev streamEvent
	switch j.kind {
	case kindAttack:
		ev = j.runAttack(s, entry)
	case kindEvaluate:
		ev = j.runEvaluate(entry)
	case kindSweep:
		ev = j.runSweep(s, pc)
	default:
		ev = errorEvent("internal", fmt.Sprintf("unexpected job kind %q", j.kind))
	}
	solved = true
	if ev.Event == "result" {
		ev.QueueMS = queued.Seconds() * 1e3
		ev.SolveMS = time.Since(solveStart).Seconds() * 1e3
	}
	return ev
}

func (j *job) runAttack(s *Server, entry *topoEntry) streamEvent {
	k, err := entry.knowledge(j.req.TrueDLR)
	if err != nil {
		return errorEvent("bad_request", err.Error())
	}
	att, err := core.FindOptimalAttack(k, core.Options{
		MaxNodes:  j.req.MaxNodes,
		MaxRounds: j.req.MaxRounds,
		RelGap:    j.req.RelGap,
		Workers:   s.cfg.AttackWorkers,
		Ctx:       j.ctx,
		Warm:      entry.warm,
		Metrics:   s.cfg.Metrics,
		Flight:    s.cfg.Flight,
	})
	if err != nil {
		return solveErrorEvent(err)
	}
	return streamEvent{
		Event: "result",
		Attack: &attackResult{
			TargetLine:    att.TargetLine,
			Direction:     att.Direction,
			GainPct:       att.GainPct,
			DLR:           att.DLR,
			Exact:         att.Exact,
			Nodes:         att.Nodes,
			Rounds:        att.Rounds,
			PredictedCost: att.PredictedCost,
			WarmBases:     entry.warm.Len(),
		},
	}
}

func (j *job) runEvaluate(entry *topoEntry) streamEvent {
	k, err := entry.knowledge(j.req.TrueDLR)
	if err != nil {
		return errorEvent("bad_request", err.Error())
	}
	ev, err := k.EvaluateAttack(j.req.DLR)
	if err != nil {
		return solveErrorEvent(err)
	}
	res := &evalResult{
		Feasible:  ev.Feasible,
		GainPct:   ev.GainPct,
		WorstLine: ev.WorstLine,
		Direction: ev.Direction,
	}
	if ev.Dispatch != nil {
		res.Cost = ev.Dispatch.Cost
	}
	return streamEvent{Event: "result", Evaluation: res}
}

// runSweep generates the request's seeded scenarios and screens them in one
// sweep.Eval pass under the job's own deadline, reducing the outcomes to
// counts.
func (j *job) runSweep(s *Server, pc *sweep.Precomp) streamEvent {
	scs, _, err := sweep.GenScenarios(pc, j.sweepConfig())
	if err != nil {
		return errorEvent("bad_request", err.Error())
	}
	evalStart := time.Now()
	outcomes, err := sweep.Eval(pc, scs, sweep.Options{
		Metrics: s.cfg.Metrics,
		Flight:  s.cfg.Flight,
		Ctx:     j.ctx,
	})
	if err != nil {
		return solveErrorEvent(err)
	}
	res := &sweepResult{MergedJobs: 1, EvalMS: time.Since(evalStart).Seconds() * 1e3}
	var cost float64
	for i := range outcomes {
		out := &outcomes[i]
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
	return streamEvent{Event: "result", Sweep: res}
}

// sweepConfig maps a sweep request onto the surface generator's config.
// Defaults keep a bare {"case": ...} request meaningful: one mid-day hour,
// one moderate attack magnitude, 64 draws.
func (j *job) sweepConfig() sweep.SurfaceConfig {
	hours := j.req.Hours
	if len(hours) == 0 {
		hours = []float64{12}
	}
	mags := j.req.Magnitudes
	if len(mags) == 0 {
		mags = []float64{0.15}
	}
	return sweep.SurfaceConfig{
		Hours:      hours,
		Magnitudes: mags,
		Draws:      j.req.Draws,
		Seed:       j.req.Seed,
	}
}
