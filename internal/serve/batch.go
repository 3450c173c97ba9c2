package serve

import (
	"fmt"
	"time"

	"github.com/edsec/edattack/internal/sweep"
	"github.com/edsec/edattack/internal/telemetry"
)

// batchLoop moves admitted jobs onto the run channel. Attack and evaluation
// jobs forward immediately. Sweep jobs are held open for BatchWindow and
// coalesced by case name: every sweep request on the same topology that
// arrives inside the window rides one sweepBatch runnable, whose scenarios
// go through a single combined sweep.Eval pass over the shared Precomp.
// On shutdown the batcher fails everything still queued — accepted but not
// yet running — and closes the run channel so workers drain and exit.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	defer close(s.run)

	pending := make(map[string]*sweepBatch)
	porder := []string{} // flush in arrival order, deterministically
	var flushC <-chan time.Time

	flush := func() {
		for _, name := range porder {
			b := pending[name]
			s.observeBatch(len(b.jobs))
			s.run <- b
		}
		pending = make(map[string]*sweepBatch)
		porder = porder[:0]
		flushC = nil
	}

	for {
		select {
		case <-s.closed:
			for _, name := range porder {
				for _, j := range pending[name].jobs {
					j.fail("unavailable", "server shutting down")
				}
			}
		drain:
			for {
				select {
				case j := <-s.admit:
					j.fail("unavailable", "server shutting down")
				default:
					break drain
				}
			}
			return
		case <-flushC:
			flush()
		case j := <-s.admit:
			s.queueGauge()
			if j.kind != kindSweep {
				s.run <- j
				continue
			}
			if s.cfg.BatchWindow < 0 {
				s.observeBatch(1)
				s.run <- &sweepBatch{jobs: []*job{j}}
				continue
			}
			b, ok := pending[j.req.Case]
			if !ok {
				b = &sweepBatch{}
				pending[j.req.Case] = b
				porder = append(porder, j.req.Case)
			}
			b.jobs = append(b.jobs, j)
			if flushC == nil {
				flushC = time.After(s.cfg.BatchWindow)
			}
		}
	}
}

func (s *Server) observeBatch(size int) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter("serve_batches_total").Inc()
		s.cfg.Metrics.Histogram("serve_batch_size", telemetry.IterBuckets).Observe(float64(size))
		if size > 1 {
			s.cfg.Metrics.Counter("serve_batches_merged_total").Inc()
		}
	}
}

// sweepBatch is a coalesced group of same-topology sweep jobs executed as
// one combined Eval pass. answered[i] records that jobs[i] has its terminal
// event; it lives on the batch, not the job, because an answered job may
// already be recycled by its handler.
type sweepBatch struct {
	jobs     []*job
	answered []bool
}

// answer sends jobs[i] its terminal event.
func (b *sweepBatch) answer(i int, ev streamEvent) {
	b.answered[i] = true
	b.jobs[i].finish(ev)
}

// execute generates each job's seeded scenario set, concatenates them, and
// runs one sweep.Eval over the shared Precomp, scattering per-job
// aggregates back to each stream. Per-job results are bit-identical to an
// unbatched run: scenario generation is a pure function of (case, request)
// and Eval outcomes are independent of how scenarios are batched. A panic
// fails every job not yet answered with an internal error.
//
// Deadlines: jobs already expired are failed before generation; the
// combined pass runs under the batch's latest deadline so one short-fused
// job cannot starve its batchmates, and each job re-checks its own context
// at delivery.
func (b *sweepBatch) execute(s *Server) {
	b.answered = make([]bool, len(b.jobs))
	defer s.recoverPanic(func(msg string) {
		for i, done := range b.answered {
			if !done {
				b.answer(i, errorEvent("internal", msg))
			}
		}
	})
	live := make([]int, 0, len(b.jobs))
	for i, j := range b.jobs {
		if err := j.ctx.Err(); err != nil {
			b.answer(i, solveErrorEvent(fmt.Errorf("expired in queue: %w", err)))
			continue
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return
	}
	// All jobs in a batch share a case name, hence a topology bundle.
	entry, err := s.topos.get(b.jobs[live[0]].req.Case)
	if err != nil {
		for _, i := range live {
			b.answer(i, errorEvent("bad_request", err.Error()))
		}
		return
	}
	pc, err := s.sweepCache.Get(entry.net)
	if err != nil {
		for _, i := range live {
			b.answer(i, errorEvent("internal", err.Error()))
		}
		return
	}

	scenarios := []sweep.Scenario{}
	offsets := make([]int, 0, len(live)+1)
	gen := make([]int, 0, len(live))
	for _, i := range live {
		scs, _, err := sweep.GenScenarios(pc, b.jobs[i].sweepConfig())
		if err != nil {
			b.answer(i, errorEvent("bad_request", err.Error()))
			continue
		}
		offsets = append(offsets, len(scenarios))
		scenarios = append(scenarios, scs...)
		gen = append(gen, i)
	}
	if len(gen) == 0 {
		return
	}
	offsets = append(offsets, len(scenarios))

	// Latest deadline in the batch bounds the combined pass.
	evalCtx := b.jobs[gen[0]].ctx
	latest, _ := evalCtx.Deadline()
	for _, i := range gen[1:] {
		if d, ok := b.jobs[i].ctx.Deadline(); ok && d.After(latest) {
			evalCtx, latest = b.jobs[i].ctx, d
		}
	}
	if testHookSolve != nil {
		testHookSolve(kindSweep)
	}
	evalStart := time.Now()
	outcomes, err := sweep.Eval(pc, scenarios, sweep.Options{
		Metrics: s.cfg.Metrics,
		Flight:  s.cfg.Flight,
		Ctx:     evalCtx,
	})
	evalMS := time.Since(evalStart).Seconds() * 1e3
	if err != nil {
		for _, i := range gen {
			b.answer(i, solveErrorEvent(err))
		}
		return
	}

	for gi, i := range gen {
		j := b.jobs[i]
		if cerr := j.ctx.Err(); cerr != nil {
			b.answer(i, solveErrorEvent(fmt.Errorf("expired during combined eval: %w", cerr)))
			continue
		}
		res := &sweepResult{MergedJobs: len(gen), EvalMS: evalMS}
		var cost float64
		for _, out := range outcomes[offsets[gi]:offsets[gi+1]] {
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
		b.answer(i, streamEvent{
			Event:   "result",
			Sweep:   res,
			QueueMS: float64(evalStart.Sub(j.accepted).Milliseconds()),
			SolveMS: evalMS,
		})
	}
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
