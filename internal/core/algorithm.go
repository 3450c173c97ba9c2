package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/par"
	"github.com/edsec/edattack/internal/telemetry"
)

// ctxErr reports a wrapped context error when ctx is non-nil and done, nil
// otherwise. Every cancellation exit in this package funnels through it so
// errors.Is(err, context.Canceled/DeadlineExceeded) works uniformly.
func ctxErr(ctx context.Context, what string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s aborted: %w", what, err)
	}
	return nil
}

// betterAttack reports whether a should replace b as the incumbent winner:
// larger gain first, then lower target line, then positive before negative
// direction. The ordering is a total order over distinct (target, dir)
// subproblems, which makes the Algorithm 1 winner independent of the order
// results arrive in.
func betterAttack(a, b *Attack) bool {
	if a.GainPct != b.GainPct {
		return a.GainPct > b.GainPct
	}
	if a.TargetLine != b.TargetLine {
		return a.TargetLine < b.TargetLine
	}
	return a.Direction > b.Direction
}

// FindOptimalAttack implements Algorithm 1 (GetOptimalAttack): it solves the
// 2·|E_D| bilevel subproblems — one per DLR line and flow direction — and
// returns the attack with the largest non-negative percentage capacity
// violation. When no subproblem admits a stealthy feasible manipulation it
// returns ErrNoFeasibleAttack.
//
// The subproblems are independent (the paper's decomposition argument) and
// are fanned over o.Workers goroutines. Every worker publishes realized
// gains to a shared incumbent bound that tightens pruning for all in-flight
// and queued subproblems; the returned attack is nevertheless identical for
// every worker count — see Options.Workers for the contract and
// seedSlackFactor for the argument.
func FindOptimalAttack(k *Knowledge, o Options) (*Attack, error) {
	o = o.withDefaults()
	if err := ctxErr(o.Ctx, "run"); err != nil {
		return nil, err
	}
	dlrLines := k.Model.Net.DLRLines()
	if len(dlrLines) == 0 {
		return nil, ErrNoDLRLines
	}
	start := time.Now()
	stats := &SolverStats{}
	root := telemetry.StartSpan(o.Tracer, nil, "core.find_optimal_attack")
	root.SetAttr("dlr_lines", len(dlrLines))
	root.SetAttr("subproblems", 2*len(dlrLines))
	root.SetAttr("workers", o.Workers)
	defer root.End()

	// A sequential fan-out (one resolved worker) runs inline on this
	// goroutine, so the parallel machinery is bypassed: the incumbent bound
	// drops its atomics, and tasks share the caller's model — with the
	// warm-start memory reset per task to the state a fresh clone would
	// start in — instead of paying a ShallowClone each. Results are
	// bit-identical either way; only the overhead differs.
	seq := par.Resolve(o.Workers, 2*len(dlrLines)) == 1
	inc := &incumbentBound{seq: seq}

	// Warm start (before the fan-out): the greedy vertex attack gives a
	// realized, achievable gain that prunes every subproblem that cannot
	// beat it.
	var best *Attack
	seedSpan := telemetry.StartSpan(nil, root, "core.greedy_seed")
	grd, err := greedyVertexAttack(k, o.Workers, o.Ctx)
	if err == nil {
		grd.Exact = false // a seed, not a proven optimum
		best = grd
		inc.Offer(grd.GainPct)
		o.Flight.Record(telemetry.FlightEvent{
			Kind:      telemetry.FlightIncumbent,
			Target:    grd.TargetLine,
			Dir:       grd.Direction,
			Incumbent: grd.GainPct,
			Label:     "seed",
		})
		seedSpan.SetAttr("gain_pct", grd.GainPct)
	} else if !errors.Is(err, ErrNoFeasibleAttack) {
		seedSpan.End()
		return nil, fmt.Errorf("core: greedy seeding: %w", err)
	}
	seedSpan.End()

	// Shared solve-invariant scaffolding, built once on the caller's model
	// (its dispatch warm start is the one mutation, and it happens before
	// any worker exists).
	pre := precompute(k, o)
	stats.SimplexIterations += pre.rootIters

	// Fan out. Each task gets its own shallow model clone so its solve
	// trajectory never depends on which goroutine (or predecessor task)
	// touched the warm-start state — a precondition for worker-count
	// independence. Results land in per-task slots; the merge below runs
	// in fixed task order.
	type task struct{ line, dir int }
	tasks := make([]task, 0, 2*len(dlrLines))
	for _, li := range dlrLines {
		tasks = append(tasks, task{li, 1}, task{li, -1})
	}
	atts := make([]*Attack, len(tasks))
	substats := make([]*SolverStats, len(tasks))
	errs := make([]error, len(tasks))
	var saved dispatch.WarmStart
	if seq {
		saved = k.Model.WarmStartState()
	}
	par.Each(o.Workers, len(tasks), func(i int) {
		if err := ctxErr(o.Ctx, "subproblem fan-out"); err != nil {
			errs[i] = err
			return
		}
		kw := k
		if seq {
			kw.Model.ResetWarmStart()
		} else {
			kw = k.forWorker()
		}
		ot := o
		release := ot.checkoutWorkspaces(kw.Model)
		att, st, err := solveSubproblemSeeded(kw, tasks[i].line, tasks[i].dir, ot, inc, pre, root)
		release()
		// Publish only positive gains. A zero-gain result (a clamped
		// non-violating optimum) prunes nothing a sibling could not already
		// rule out, but publishing it mid-flight would SET an otherwise
		// empty bound at a schedule-dependent instant — and a node-budget-
		// truncated sibling search would then freeze different equal-gain
		// incumbents under different worker timings. Pre-fan-out offers
		// (the greedy seed) are deterministic and stay unconditional.
		if err == nil && att != nil && att.GainPct > 0 {
			inc.Offer(att.GainPct)
			o.Flight.Record(telemetry.FlightEvent{
				Kind:      telemetry.FlightIncumbent,
				Target:    tasks[i].line,
				Dir:       tasks[i].dir,
				Incumbent: att.GainPct,
				Label:     "shared",
			})
		}
		atts[i], substats[i], errs[i] = att, st, err
	})
	if seq {
		// Leave the caller's model exactly as the parallel path would: the
		// clone-per-task schedule never touches it after precompute.
		k.Model.RestoreWarmStart(saved)
	}

	anyFeasible := best != nil
	totalNodes := 0
	exact := true
	for i, t := range tasks {
		att, err := atts[i], errs[i]
		if errors.Is(err, ErrNoFeasibleAttack) {
			stats.add(substats[i])
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: Algorithm 1 at line %d dir %+d: %w", t.line, t.dir, err)
		}
		if att == nil {
			// No attack from this subproblem: a pruning proof (counted in
			// the stats block), or a truncated empty search — which proved
			// nothing, so the winner's optimality claim must not survive it.
			stats.add(substats[i])
			if st := substats[i]; st != nil && st.Truncated > 0 {
				exact = false
			}
			continue
		}
		anyFeasible = true
		totalNodes += att.Nodes
		exact = exact && att.Exact
		stats.add(att.Stats)
		if best == nil || betterAttack(att, best) {
			best = att
		}
	}
	if !anyFeasible || best == nil {
		return nil, ErrNoFeasibleAttack
	}
	// A context that expires anywhere in the run must surface as an error,
	// never as a result: the rich polish below stops early under a done
	// context, and a half-polished winner would differ from the canonical
	// attack. (Mid-fan-out cancellations were already caught per task.)
	if err := ctxErr(o.Ctx, "run"); err != nil {
		return nil, err
	}
	// Rich refinement: one deeper deterministic polish of the single winner
	// (wider candidate set than the per-subproblem dives — paying it 2·|E_D|
	// times would dominate the run). The winner and its raw ratings are
	// already schedule-independent, so the refined attack is too. A fresh
	// worker clone keeps the caller's model untouched; strict improvement
	// only, so a no-op polish leaves the merge result bit-identical.
	if !o.NoDive && best.GainPct > 0 {
		raw := best.rawDLR
		if raw == nil {
			raw = best.DLR
		}
		kw := k.forWorker()
		ot := o
		release := ot.checkoutWorkspaces(kw.Model)
		defer release()
		sp := newSubproblem(kw, best.TargetLine, float64(best.Direction), pre.monitored, ot, pre)
		if rg, rdlr, rres, ok := sp.polish(raw, true); ok {
			if rg = quantize(rg, gainQuantum); rg > best.GainPct {
				nb := *best
				nb.GainPct = rg
				nb.DLR = canonicalDLR(kw, rdlr, rres.Flows)
				nb.rawDLR = rdlr
				nb.PredictedP = rres.P
				nb.PredictedFlows = rres.Flows
				nb.PredictedCost = kw.Model.Cost(rres.P)
				best = &nb
			}
		}
	}
	best.Nodes = totalNodes
	best.Exact = exact
	stats.WallTime = time.Since(start)
	// Settle the aggregate bound against the winner: exact runs are their
	// own bound; truncated runs report the worst surviving subproblem bound
	// and the gap it leaves above the winning gain.
	if exact {
		stats.BestBoundPct = best.GainPct
		stats.Gap = 0
	} else if !math.IsInf(stats.BestBoundPct, 1) {
		if stats.BestBoundPct < best.GainPct {
			stats.BestBoundPct = best.GainPct
		}
		stats.Gap = (stats.BestBoundPct - best.GainPct) / (1 + best.GainPct)
	}
	best.Stats = stats
	root.SetAttr("gain_pct", best.GainPct)
	root.SetAttr("target", best.TargetLine)
	root.SetAttr("nodes", stats.Nodes)
	resultLabel := "optimal"
	if !best.Exact {
		resultLabel = "truncated"
	}
	o.Flight.Record(telemetry.FlightEvent{
		Kind:      telemetry.FlightAttack,
		Target:    best.TargetLine,
		Dir:       best.Direction,
		Incumbent: best.GainPct,
		DurUS:     stats.WallTime.Microseconds(),
		Label:     resultLabel,
	})
	if err := ctxErr(o.Ctx, "run"); err != nil {
		// The context fired during the winner's rich polish: the polish
		// stopped at an arbitrary candidate, so the refined attack is not
		// the canonical one. Error out rather than return it.
		return nil, err
	}
	return best, nil
}

// GreedyVertexAttack is the heuristic baseline suggested by the structure of
// the paper's Table I optimum: to overload a target DLR line, raise its
// manipulated rating to the band maximum and choke every other DLR line to
// the band minimum, forcing flow onto the target. It evaluates all 2·|E_D|
// vertex candidates through the operator's actual dispatch and keeps the
// best stealthy-feasible one.
func GreedyVertexAttack(k *Knowledge) (*Attack, error) {
	return greedyVertexAttack(k, 0, nil)
}

// greedyVertexAttack evaluates the vertex candidates over a worker pool.
// Candidates are independent dispatch solves; each runs against its own
// shallow model clone and results merge in candidate order (strict
// improvement), so the outcome matches the sequential sweep exactly.
// A non-nil ctx is checked per candidate; a done context errors the sweep.
func greedyVertexAttack(k *Knowledge, workers int, ctx context.Context) (*Attack, error) {
	net := k.Model.Net
	dlrLines := net.DLRLines()
	if len(dlrLines) == 0 {
		return nil, ErrNoDLRLines
	}
	seq := par.Resolve(workers, len(dlrLines)) == 1
	var saved dispatch.WarmStart
	if seq {
		saved = k.Model.WarmStartState()
	}
	cands := make([]*Attack, len(dlrLines))
	errs := make([]error, len(dlrLines))
	par.Each(workers, len(dlrLines), func(i int) {
		if err := ctxErr(ctx, "greedy candidate"); err != nil {
			errs[i] = err
			return
		}
		target := dlrLines[i]
		dlr := make(map[int]float64, len(dlrLines))
		for _, li := range dlrLines {
			if li == target {
				dlr[li] = net.Lines[li].DLRMax
			} else {
				dlr[li] = net.Lines[li].DLRMin
			}
		}
		kw := k
		if seq {
			kw.Model.ResetWarmStart()
		} else {
			kw = k.forWorker()
		}
		release := checkoutModelWorkspace(kw.Model)
		ev, err := kw.EvaluateAttack(dlr)
		release()
		if err != nil {
			errs[i] = fmt.Errorf("core: greedy candidate for line %d: %w", target, err)
			return
		}
		if !ev.Feasible {
			return
		}
		cands[i] = &Attack{
			DLR:            dlr,
			TargetLine:     ev.WorstLine,
			Direction:      ev.Direction,
			GainPct:        ev.GainPct,
			PredictedP:     ev.Dispatch.P,
			PredictedFlows: ev.Dispatch.Flows,
			PredictedCost:  ev.Dispatch.Cost,
		}
	})
	if seq {
		k.Model.RestoreWarmStart(saved)
	}
	var best *Attack
	for i := range cands {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if cands[i] == nil {
			continue
		}
		if best == nil || cands[i].GainPct > best.GainPct {
			best = cands[i]
		}
	}
	if best == nil {
		return nil, ErrNoFeasibleAttack
	}
	return best, nil
}

// RandomAttack samples manipulations uniformly from the plausibility box and
// keeps the best stealthy-feasible one — the weakest baseline, quantifying
// how much the physics-aware optimization buys the attacker.
func RandomAttack(k *Knowledge, samples int, seed int64) (*Attack, error) {
	return randomAttack(k, samples, seed, 0)
}

// randomAttack draws every sample from the seeded rng sequentially — so the
// sample sequence is a pure function of the seed regardless of worker count
// — then evaluates the candidates over a worker pool and merges in sample
// order.
func randomAttack(k *Knowledge, samples int, seed int64, workers int) (*Attack, error) {
	net := k.Model.Net
	dlrLines := net.DLRLines()
	if len(dlrLines) == 0 {
		return nil, ErrNoDLRLines
	}
	if samples <= 0 {
		samples = 50
	}
	rng := rand.New(rand.NewSource(seed))
	dlrs := make([]map[int]float64, samples)
	for s := 0; s < samples; s++ {
		dlr := make(map[int]float64, len(dlrLines))
		for _, li := range dlrLines {
			l := &net.Lines[li]
			dlr[li] = l.DLRMin + (l.DLRMax-l.DLRMin)*rng.Float64()
		}
		dlrs[s] = dlr
	}
	seq := par.Resolve(workers, samples) == 1
	var saved dispatch.WarmStart
	if seq {
		saved = k.Model.WarmStartState()
	}
	cands := make([]*Attack, samples)
	errs := make([]error, samples)
	par.Each(workers, samples, func(s int) {
		kw := k
		if seq {
			kw.Model.ResetWarmStart()
		} else {
			kw = k.forWorker()
		}
		release := checkoutModelWorkspace(kw.Model)
		ev, err := kw.EvaluateAttack(dlrs[s])
		release()
		if err != nil {
			errs[s] = fmt.Errorf("core: random candidate %d: %w", s, err)
			return
		}
		if !ev.Feasible {
			return
		}
		cands[s] = &Attack{
			DLR:            dlrs[s],
			TargetLine:     ev.WorstLine,
			Direction:      ev.Direction,
			GainPct:        ev.GainPct,
			PredictedP:     ev.Dispatch.P,
			PredictedFlows: ev.Dispatch.Flows,
			PredictedCost:  ev.Dispatch.Cost,
		}
	})
	if seq {
		k.Model.RestoreWarmStart(saved)
	}
	var best *Attack
	for s := range cands {
		if errs[s] != nil {
			return nil, errs[s]
		}
		if cands[s] == nil {
			continue
		}
		if best == nil || cands[s].GainPct > best.GainPct {
			best = cands[s]
		}
	}
	if best == nil {
		return nil, ErrNoFeasibleAttack
	}
	return best, nil
}

// SortedDLRLines returns the DLR line indices sorted by true rating, a
// convenience for deterministic reporting.
func SortedDLRLines(k *Knowledge) []int {
	out := k.Model.Net.DLRLines()
	sort.Slice(out, func(a, b int) bool { return k.TrueDLR[out[a]] < k.TrueDLR[out[b]] })
	return out
}
