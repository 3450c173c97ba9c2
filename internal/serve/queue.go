package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/edsec/edattack/internal/core"
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

// sweepResult is the sweep endpoint's result payload. MergedJobs reports
// how many requests shared the combined Eval pass this job rode in (1 =
// unbatched).
type sweepResult struct {
	Scenarios  int     `json:"scenarios"`
	Dangerous  int     `json:"dangerous"`
	Detected   int     `json:"detected"`
	Success    int     `json:"success"`
	Rate       float64 `json:"success_rate"`
	MeanCost   float64 `json:"mean_cost"`
	MergedJobs int     `json:"merged_jobs"`
	EvalMS     float64 `json:"eval_ms"`
}

// job is one admitted request flowing through the pipeline. The executor
// (worker or batcher) sends at most a handful of events into out and closes
// it exactly once; the handler drains until close.
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
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
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

// fail emits one error event and closes the job's stream.
func (j *job) fail(status int, code, msg string) {
	j.out <- streamEvent{Event: "error", Code: code, Error: msg}
	close(j.out)
}

// failErr maps solver errors onto stream error codes; context errors keep
// their identity so clients can tell a deadline from a crash.
func (j *job) failErr(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		j.fail(0, "deadline_exceeded", err.Error())
	case errors.Is(err, context.Canceled):
		j.fail(0, "canceled", err.Error())
	case errors.Is(err, core.ErrNoFeasibleAttack):
		j.fail(0, "no_feasible_attack", err.Error())
	default:
		j.fail(0, "internal", err.Error())
	}
}

// runnable is one unit the worker pool executes: a single attack/evaluate
// job, or a coalesced batch of same-topology sweep jobs.
type runnable interface {
	execute(s *Server)
}

// workerLoop drains the run channel until the batcher closes it.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for r := range s.run {
		r.execute(s)
	}
}

// execute runs a single attack or evaluation job against its topology's
// shared state. The topology lock serializes model-touching solves — the
// dispatch model is warm-started and not safe for concurrent use — while
// jobs on other topologies proceed on other workers.
func (j *job) execute(s *Server) {
	queued := time.Since(j.accepted)
	if err := j.ctx.Err(); err != nil {
		j.failErr(fmt.Errorf("expired in queue after %s: %w", queued.Round(time.Millisecond), err))
		return
	}
	entry, err := s.topos.get(j.req.Case)
	if err != nil {
		j.fail(0, "bad_request", err.Error())
		return
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	solveStart := time.Now()
	switch j.kind {
	case kindAttack:
		j.executeAttack(s, entry, queued, solveStart)
	case kindEvaluate:
		j.executeEvaluate(s, entry, queued, solveStart)
	default:
		j.fail(0, "internal", fmt.Sprintf("unexpected job kind %q", j.kind))
	}
}

func (j *job) executeAttack(s *Server, entry *topoEntry, queued time.Duration, solveStart time.Time) {
	k, err := entry.knowledge(j.req.TrueDLR)
	if err != nil {
		j.fail(0, "bad_request", err.Error())
		return
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
		j.failErr(err)
		return
	}
	j.out <- streamEvent{
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
		QueueMS: queued.Seconds() * 1e3,
		SolveMS: time.Since(solveStart).Seconds() * 1e3,
	}
	close(j.out)
}

func (j *job) executeEvaluate(s *Server, entry *topoEntry, queued time.Duration, solveStart time.Time) {
	k, err := entry.knowledge(j.req.TrueDLR)
	if err != nil {
		j.fail(0, "bad_request", err.Error())
		return
	}
	ev, err := k.EvaluateAttack(j.req.DLR)
	if err != nil {
		j.failErr(err)
		return
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
	j.out <- streamEvent{
		Event:      "result",
		Evaluation: res,
		QueueMS:    queued.Seconds() * 1e3,
		SolveMS:    time.Since(solveStart).Seconds() * 1e3,
	}
	close(j.out)
}
