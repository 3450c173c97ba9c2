package sweep

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/edsec/edattack/internal/contingency"
	"github.com/edsec/edattack/internal/dcflow"
	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/par"
	"github.com/edsec/edattack/internal/telemetry"
)

// Scenario is one Monte-Carlo operating point: a demand draw, the dispatch
// serving it, the true line ratings, and the ratings the operator sees
// (identical to the true ones unless an attack is in flight).
type Scenario struct {
	// Demand is the per-bus real demand in MW (indexed like Buses).
	Demand []float64
	// Dispatch is the per-generator output in MW (indexed like Gens).
	Dispatch []float64
	// TrueRatings is the physical per-line limit in MW (≤ 0 unlimited).
	TrueRatings []float64
	// SeenRatings is the operator-visible per-line limit in MW — the
	// attacked DLR values during an attack (≤ 0 unlimited).
	SeenRatings []float64
}

// Violation is one base-case line overload.
type Violation struct {
	// Line is the overloaded line; FlowMW and RatingMW quantify it.
	Line             int
	FlowMW, RatingMW float64
	// Pct is 100·(|flow|/rating − 1).
	Pct float64
}

// N1Summary is an N−1 screen kept as counts: how many post-contingency
// overloads there are and the worst, with no record per overload.
type N1Summary struct {
	// Overloads counts the (outage, overloaded line) pairs.
	Overloads int
	// InsecureOutages counts the outages causing at least one overload.
	InsecureOutages int
	// IslandingOutages counts outages skipped because they island the grid.
	IslandingOutages int
	// WorstPct is the largest post-contingency percentage overload.
	WorstPct float64
}

// RatingView is a scenario evaluated against one rating vector: the
// base-case overloads and the N−1 screen.
type RatingView struct {
	// Violations lists base-case overloads in line order.
	Violations []Violation
	// WorstPct is the largest base-case percentage overload.
	WorstPct float64
	// N1 summarizes the N−1 screen against the same ratings.
	N1 N1Summary
}

// Outcome is one evaluated scenario.
type Outcome struct {
	// Cost is the generation cost of the scenario's dispatch in $/h.
	Cost float64
	// Flows holds the base-case MW flows, quantized onto the FlowQuantum
	// grid (indexed like Lines).
	Flows []float64
	// True evaluates the scenario against the physical ratings; Seen
	// against the operator-visible ones.
	True, Seen RatingView
	// Dangerous marks a physically insecure scenario (a true base-case
	// overload or a true N−1 insecurity). Detected marks one the
	// operator's screens would flag. Success — the attacker's metric —
	// is a dangerous scenario the operator cannot see.
	Dangerous, Detected, Success bool
}

// Options tunes a batched evaluation.
type Options struct {
	// BatchSize is the number of scenarios per packed batch (≤ 0 → 64).
	BatchSize int
	// Workers spreads batches over the worker pool (≤ 0 → one per CPU).
	Workers int
	// Sequential routes every scenario through the per-scenario
	// dcflow.Solve + contingency.Screen oracle instead of the batched
	// shift-factor path — the differential-testing reference.
	Sequential bool
	// Metrics, when set, receives sweep_* counters and histograms.
	Metrics *telemetry.Registry
	// Flight, when set, records one event per batch plus a summary.
	Flight *telemetry.Flight
	// Ctx, when non-nil, is checked once per batch; a canceled or expired
	// context makes Eval return the context's error (wrapped,
	// errors.Is-compatible) instead of a partial outcome slice.
	Ctx context.Context
}

// DefaultBatchSize is the packed-batch width when Options.BatchSize is
// unset: wide enough to amortize per-batch setup, narrow enough that the
// flow block and both rating blocks stay cache-resident on case118.
const DefaultBatchSize = 64

// Eval evaluates every scenario and returns outcomes in scenario order.
// Results are bit-identical for any BatchSize and Workers setting, and —
// after flow quantization — to the Sequential oracle.
func Eval(pc *Precomp, scs []Scenario, o Options) ([]Outcome, error) {
	nb, ng, nl := len(pc.Net.Buses), len(pc.Net.Gens), len(pc.Net.Lines)
	for i := range scs {
		s := &scs[i]
		if len(s.Demand) != nb || len(s.Dispatch) != ng ||
			len(s.TrueRatings) != nl || len(s.SeenRatings) != nl {
			return nil, fmt.Errorf("sweep: scenario %d shaped (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				i, len(s.Demand), len(s.Dispatch), len(s.TrueRatings), len(s.SeenRatings), nb, ng, nl, nl)
		}
	}
	timed := o.Metrics != nil || o.Flight != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	outcomes := make([]Outcome, len(scs))
	bs := o.BatchSize
	if bs <= 0 {
		bs = DefaultBatchSize
	}
	nBatches := (len(scs) + bs - 1) / bs
	errs := make([]error, nBatches)
	par.Each(o.Workers, nBatches, func(bi int) {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				errs[bi] = fmt.Errorf("sweep: batch %d aborted: %w", bi, err)
				return
			}
		}
		lo := bi * bs
		hi := lo + bs
		if hi > len(scs) {
			hi = len(scs)
		}
		var batchStart time.Time
		if timed {
			batchStart = time.Now()
		}
		if o.Sequential {
			for i := lo; i < hi; i++ {
				out, err := EvalOne(pc, &scs[i])
				if err != nil {
					errs[bi] = err
					return
				}
				outcomes[i] = out
			}
		} else if err := evalBatch(pc, scs[lo:hi], outcomes[lo:hi]); err != nil {
			errs[bi] = err
			return
		}
		if timed {
			dur := time.Since(batchStart)
			o.Metrics.Histogram("sweep_batch_seconds", nil).Observe(dur.Seconds())
			o.Metrics.Counter("sweep_batches_total").Inc()
			o.Metrics.Counter("sweep_scenarios_total").Add(int64(hi - lo))
			successes := 0
			for i := lo; i < hi; i++ {
				if outcomes[i].Success {
					successes++
				}
			}
			o.Flight.Record(telemetry.FlightEvent{
				Kind: telemetry.FlightSweep, Label: "batch", Round: bi + 1,
				Monitored: hi - lo, Violated: successes, DurUS: dur.Microseconds(),
			})
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if timed {
		successes := 0
		for i := range outcomes {
			if outcomes[i].Success {
				successes++
			}
		}
		o.Flight.Record(telemetry.FlightEvent{
			Kind: telemetry.FlightSweep, Label: "eval",
			Monitored: len(scs), Violated: successes,
			DurUS: time.Since(start).Microseconds(),
		})
	}
	return outcomes, nil
}

// EvalOne is the per-scenario oracle: one full dcflow.Solve for the flows
// and one contingency.Screen per rating vector. It is the slow path the
// batched engine must agree with bit-for-bit after flow quantization.
func EvalOne(pc *Precomp, s *Scenario) (Outcome, error) {
	inj := make([]float64, len(pc.Net.Buses))
	pc.injections(s, inj)
	res, err := dcflow.Solve(pc.Net, inj)
	if err != nil {
		return Outcome{}, fmt.Errorf("sweep: %w", err)
	}
	flows := make([]float64, len(res.Flows))
	for l, f := range res.Flows {
		flows[l] = quantizeFlow(f)
	}
	out := Outcome{Cost: scenarioCost(pc, s), Flows: flows}
	if err := oracleView(pc, flows, s.TrueRatings, &out.True); err != nil {
		return Outcome{}, err
	}
	if err := oracleView(pc, flows, s.SeenRatings, &out.Seen); err != nil {
		return Outcome{}, err
	}
	finishOutcome(&out)
	return out, nil
}

// oracleView fills one RatingView via the existing sequential primitives,
// reducing contingency.Screen's full report to its summary.
func oracleView(pc *Precomp, flows, ratings []float64, v *RatingView) error {
	v.Violations, v.WorstPct = baseViolations(flows, ratings)
	rep, err := contingency.Screen(pc.LODF, flows, ratings)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	v.N1 = N1Summary{
		Overloads:        len(rep.Overloads),
		InsecureOutages:  rep.InsecureOutages,
		IslandingOutages: rep.IslandingOutages,
		WorstPct:         rep.WorstPct,
	}
	return nil
}

// baseViolations scans quantized flows against one rating vector using the
// repository's overload convention (|f| > u·(1+1e-9)).
func baseViolations(flows, ratings []float64) ([]Violation, float64) {
	var out []Violation
	worst := 0.0
	for l, f := range flows {
		u := ratings[l]
		if u <= 0 {
			continue
		}
		if a := math.Abs(f); a > u*(1+1e-9) {
			pct := 100 * (a/u - 1)
			out = append(out, Violation{Line: l, FlowMW: f, RatingMW: u, Pct: pct})
			if pct > worst {
				worst = pct
			}
		}
	}
	return out, worst
}

// scenarioCost is the generation cost of the scenario's dispatch.
func scenarioCost(pc *Precomp, s *Scenario) float64 {
	var c float64
	for gi := range pc.Net.Gens {
		c += pc.Net.Gens[gi].Cost(s.Dispatch[gi])
	}
	return c
}

// finishOutcome derives the attack-success verdict from the two views.
func finishOutcome(out *Outcome) {
	out.Dangerous = len(out.True.Violations) > 0 || out.True.N1.InsecureOutages > 0
	out.Detected = len(out.Seen.Violations) > 0 || out.Seen.N1.InsecureOutages > 0
	out.Success = out.Dangerous && !out.Detected
}

// batchScratch holds one batch's packed blocks — injections, flows, ratings,
// extrema, N−1 summaries, outage marks — recycled through batchPool so a
// steady-state sweep allocates only the per-scenario Outcome vectors it
// hands to the caller.
// Every block is fully overwritten before use, so no clearing is needed on
// checkout, and none points into a batch's outcomes.
type batchScratch struct {
	inj        []float64
	col        []float64
	flows      []float64
	ratings    []float64
	maxAbs     []float64
	minU       []float64
	sums       []N1Summary
	lastOutage []int
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grow reslices s to length n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// evalBatch evaluates one packed batch of scenarios in place.
//
// The batch pipeline: scatter per-scenario injections into a buses×S
// scenario-per-column block, compute all flows with one shift-factor
// product (dense blocked GEMM or CSR·dense, bit-identical), quantize,
// then run the vectorized base-case check and batched N−1 screen against
// both rating sets.
func evalBatch(pc *Precomp, scs []Scenario, outcomes []Outcome) error {
	nb, nl, S := len(pc.Net.Buses), len(pc.Net.Lines), len(scs)
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	sc.inj = grow(sc.inj, nb*S)
	sc.col = grow(sc.col, nb)
	inj := sc.inj
	col := sc.col
	for j := range scs {
		pc.injections(&scs[j], col)
		for i, v := range col {
			inj[i*S+j] = v
		}
	}
	sc.flows = grow(sc.flows, nl*S)
	flows := sc.flows
	if pc.PTDFSparse != nil {
		if err := pc.PTDFSparse.MulDenseInto(flows, inj, S); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	} else {
		injM, err := mat.Wrap(nb, S, inj)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		flowsM, err := mat.Wrap(nl, S, flows)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if err := mat.MulBlockedInto(flowsM, pc.PTDF, injM); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for i, f := range flows {
		flows[i] = quantizeFlow(f)
	}
	// Per-scenario outcomes: transpose flows out of the block, then the
	// base-case scan reuses the oracle's own helper on each column.
	for j := range scs {
		out := &outcomes[j]
		out.Cost = scenarioCost(pc, &scs[j])
		f := make([]float64, nl)
		for l := 0; l < nl; l++ {
			f[l] = flows[l*S+j]
		}
		out.Flows = f
		out.True.Violations, out.True.WorstPct = baseViolations(f, scs[j].TrueRatings)
		out.Seen.Violations, out.Seen.WorstPct = baseViolations(f, scs[j].SeenRatings)
	}
	screenBatch(pc, sc, flows, scs, outcomes, true)
	screenBatch(pc, sc, flows, scs, outcomes, false)
	for j := range outcomes {
		finishOutcome(&outcomes[j])
	}
	return nil
}

// screenBatch runs the batched N−1 screen for one rating set (true or
// seen) over a whole flow block, counting into per-scenario summaries.
//
// For every (monitored line l, outage k) pair the LODF factor is applied
// to the entire batch — post[l][j] = f[l][j] + LODF(l,k)·f[k][j], the
// exact expression contingency.Screen evaluates per scenario — so
// summaries match the oracle's reduced reports bit-for-bit. A conservative
// per-(l,k) bound (max|f_l| + |LODF|·max|f_k| ≤ min rating) skips batch
// columns that cannot possibly overload; the 1e-9 relative slack in the
// overload threshold dwarfs the bound's rounding, so skipping never changes
// a summary, only the work.
//
// The scan runs k-outer / l-inner, so an outage's overloads arrive
// together and one last-outage mark per scenario counts insecure outages,
// and reads the factors from the precomputed outage-major LODF transpose,
// so the bound-scan over l streams contiguous memory instead of striding a
// column per factor.
func screenBatch(pc *Precomp, sc *batchScratch, flows []float64, scs []Scenario, outcomes []Outcome, trueView bool) {
	nl, S := len(pc.Net.Lines), len(scs)

	// Pack the per-scenario rating vectors into a line-major block and
	// fold per-line batch extrema.
	sc.ratings = grow(sc.ratings, nl*S)
	ratings := sc.ratings
	for j := range scs {
		r := scs[j].TrueRatings
		if !trueView {
			r = scs[j].SeenRatings
		}
		for l := 0; l < nl; l++ {
			ratings[l*S+j] = r[l]
		}
	}
	sc.maxAbs = grow(sc.maxAbs, nl)
	sc.minU = grow(sc.minU, nl)
	maxAbs := sc.maxAbs
	minU := sc.minU
	for l := 0; l < nl; l++ {
		row := flows[l*S : (l+1)*S]
		m := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		maxAbs[l] = m
		mu := math.Inf(1)
		for _, u := range ratings[l*S : (l+1)*S] {
			if u > 0 && u < mu {
				mu = u
			}
		}
		minU[l] = mu
	}

	sc.sums, sc.lastOutage = grow(sc.sums, S), grow(sc.lastOutage, S)
	sums, lastOutage := sc.sums, sc.lastOutage
	for j := range sums {
		sums[j] = N1Summary{IslandingOutages: pc.Islanding}
		lastOutage[j] = -1
	}

	for k := 0; k < nl; k++ {
		if pc.islanding[k] {
			continue
		}
		factors := pc.lodfT[k*nl : (k+1)*nl]
		fk := flows[k*S : (k+1)*S]
		mk := maxAbs[k]
		for l := 0; l < nl; l++ {
			if l == k {
				continue
			}
			c := factors[l]
			if maxAbs[l]+math.Abs(c)*mk <= minU[l] {
				continue
			}
			fl := flows[l*S : (l+1)*S]
			rl := ratings[l*S : (l+1)*S]
			for j := 0; j < S; j++ {
				u := rl[j]
				if u <= 0 {
					continue
				}
				a := math.Abs(fl[j] + c*fk[j])
				if a > u*(1+1e-9) {
					pct := 100 * (a/u - 1)
					v := &sums[j]
					v.Overloads++
					if lastOutage[j] != k {
						v.InsecureOutages++
						lastOutage[j] = k
					}
					if pct > v.WorstPct {
						v.WorstPct = pct
					}
				}
			}
		}
	}
	for j := range outcomes {
		v := &outcomes[j].Seen
		if trueView {
			v = &outcomes[j].True
		}
		v.N1 = sums[j]
	}
}
