// Package dispatch implements the system operator's economic dispatch (ED):
// the DC optimal power flow of Section II of the paper, in both linear-cost
// (LP) and convex-quadratic-cost (QP) forms, plus the nonlinear (AC)
// evaluation pass used to measure what a dispatch actually does to the
// physical system.
//
// The DC-ED is formulated in PTDF (shift-factor) space: with nodal balance
// eliminated, line flows are affine in the generator outputs,
//
//	f = M·p + f₀,
//
// which keeps the KKT systems used by the bilevel attack generator small.
package dispatch

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/edsec/edattack/internal/dcflow"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/qp"
	"github.com/edsec/edattack/internal/telemetry"
)

// ErrInfeasible is returned when no dispatch satisfies the constraints —
// operationally, the condition under which the EMS raises an alarm instead
// of dispatching (the attacker must avoid triggering this).
var ErrInfeasible = errors.New("dispatch: economic dispatch infeasible")

// Model is the affine DC-ED model: flows as a function of generator output,
// plus cost data. Build once per (topology, demand) pair; ratings can vary
// per solve.
//
// A Model is NOT safe for concurrent Solve/SetDemands calls: Solve mutates
// the warm-start memory (lastBinding) and SetDemands rewrites Base/Demand.
// Concurrent workers should each hold a ShallowClone, which shares the
// expensive immutable inputs (Net, M, ptdf) and owns the mutable state.
type Model struct {
	// Net is the underlying network.
	Net *grid.Network
	// M is the lines×gens flow-sensitivity matrix (PTDF × generator
	// incidence).
	M *mat.Matrix
	// Base is the MW flow on each line when all generators are at zero
	// (load served implicitly by the slack, per PTDF reference).
	Base []float64
	// Demand is the total MW demand the dispatch must serve.
	Demand float64
	// ptdf is retained to rebuild Base under demand overrides.
	ptdf *mat.Matrix
	// lastBinding warm-starts constraint generation across solves.
	lastBinding []int
	// start hot-starts the dual QP method from the working set the
	// previous QP solve on this model ended with. Like lastBinding it is
	// per-clone mutable state; results do not depend on it, only the work
	// does (see qp.Options.Start).
	start qp.WorkingSet
	// kkt carries QP factorization work across solves: the dispatch QP's
	// matrix family is fixed per model (only ratings and demand vary), so
	// the bordered KKT path's base LU, border columns, and Schur factors
	// are reusable at every case size. Like lastBinding it is per-clone
	// mutable state, never shared between workers.
	kkt qp.KKTCache
	// qp is the dispatch QP, built on the first QP solve (see qpProblem);
	// each round re-solves it with new row sides and demand. Per-clone
	// mutable state like kkt.
	qp *qp.Problem
	// inSet marks the lines whose limits a round enforces, and flows holds
	// the round's line flows: Solve's per-round buffers.
	inSet []bool
	flows []float64
	// Metrics, when non-nil, receives dispatch_* counters and forwards to
	// the inner LP/QP solvers' lp_*/qp_* counters. Nil costs nothing.
	Metrics *telemetry.Registry
	// Workspace, when non-nil, supplies the inner LP/QP solvers' working
	// storage, reused across rowgen rounds and solves. Like lastBinding it
	// is per-clone mutable state: a workspace belongs to exactly one worker
	// at a time and is never shared concurrently. ShallowClone deliberately
	// leaves it nil — each worker attaches its own. When nil, every inner
	// solve borrows one from lp's pool; results are bit-identical either
	// way.
	Workspace *lp.Workspace
}

// BuildModel assembles the affine model for the network's nominal demand.
func BuildModel(n *grid.Network) (*Model, error) {
	ptdf, err := dcflow.PTDF(n)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	m := mat.New(len(n.Lines), len(n.Gens))
	for gi := range n.Gens {
		bi, err := n.BusIndex(n.Gens[gi].Bus)
		if err != nil {
			return nil, fmt.Errorf("dispatch: %w", err)
		}
		for li := 0; li < len(n.Lines); li++ {
			m.Set(li, gi, ptdf.At(li, bi))
		}
	}
	mod := &Model{Net: n, M: m, ptdf: ptdf}
	if err := mod.SetDemands(nil); err != nil {
		return nil, err
	}
	return mod, nil
}

// SetDemands overrides the per-bus demand (MW, indexed like Net.Buses) and
// recomputes the base flows. nil restores the network's nominal demand.
func (m *Model) SetDemands(demands []float64) error {
	n := m.Net
	d := make([]float64, len(n.Buses))
	if demands == nil {
		for i := range n.Buses {
			d[i] = n.Buses[i].Pd
		}
	} else {
		if len(demands) != len(n.Buses) {
			return fmt.Errorf("dispatch: %d demands for %d buses", len(demands), len(n.Buses))
		}
		copy(d, demands)
	}
	neg := make([]float64, len(d))
	var total float64
	for i, v := range d {
		neg[i] = -v
		total += v
	}
	base, err := m.ptdf.MulVec(neg)
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	m.Base = base
	m.Demand = total
	return nil
}

// PTDF returns the lines×buses shift-factor matrix the model was built
// with. The matrix is shared, immutable model state: callers must treat it
// as read-only. It lets downstream consumers — LODF construction, the
// scenario-sweep engine — reuse the O(n³) factorization BuildModel already
// paid instead of recomputing it.
func (m *Model) PTDF() *mat.Matrix { return m.ptdf }

// ShallowClone returns a Model sharing this model's immutable inputs — the
// network, the flow-sensitivity matrix, and the PTDF — with its own copy of
// the demand state and empty warm-start memory. Clones are what parallel
// solver workers hold: building one costs a single Base-vector copy, versus
// the O(n³) PTDF factorization BuildModel pays.
func (m *Model) ShallowClone() *Model {
	c := &Model{
		Net:     m.Net,
		M:       m.M,
		Demand:  m.Demand,
		ptdf:    m.ptdf,
		Metrics: m.Metrics,
	}
	c.Base = append([]float64(nil), m.Base...)
	return c
}

// ResetWarmStart clears the cross-solve warm-start memory (the
// constraint-generation binding set and the QP working set), putting the
// model in the state a fresh ShallowClone starts in. The KKT factorization
// cache is deliberately kept: cached factors — sparse base and Schur
// complements alike — are bit-identical to freshly computed ones (same
// matrices, deterministic factorization), so reuse never changes results,
// whichever Schur factors the cache still holds. That is what lets a
// sequential fan-out share one model across tasks instead of cloning per
// task.
func (m *Model) ResetWarmStart() {
	m.lastBinding = m.lastBinding[:0]
	m.start.Reset()
}

// WarmStart is a snapshot of a model's warm-start memory.
type WarmStart struct {
	binding []int
	start   qp.WorkingSet
}

// WarmStartState returns a copy of the warm-start memory, for callers that
// reset it per task and want to restore the pre-fan-out state afterwards.
func (m *Model) WarmStartState() WarmStart {
	w := WarmStart{binding: append([]int(nil), m.lastBinding...)}
	w.start.CopyFrom(&m.start)
	return w
}

// RestoreWarmStart overwrites the warm-start memory with a snapshot from
// WarmStartState.
func (m *Model) RestoreWarmStart(w WarmStart) {
	m.lastBinding = append(m.lastBinding[:0], w.binding...)
	m.start.CopyFrom(&w.start)
}

// ForDemands returns a ShallowClone with the per-bus demand overridden —
// the concurrency-safe counterpart of SetDemands for scenario workers that
// each dispatch a different load snapshot. When net is non-nil the clone is
// additionally pointed at that network (e.g. a per-scenario copy with scaled
// bus loads for AC evaluation); it must be topologically identical.
func (m *Model) ForDemands(demands []float64, net *grid.Network) (*Model, error) {
	c := m.ShallowClone()
	if net != nil {
		c.Net = net
	}
	if err := c.SetDemands(demands); err != nil {
		return nil, err
	}
	return c, nil
}

// FlowsFor evaluates the DC line flows for a dispatch p.
func (m *Model) FlowsFor(p []float64) ([]float64, error) {
	if len(p) != len(m.Net.Gens) {
		return nil, fmt.Errorf("dispatch: %d outputs for %d generators", len(p), len(m.Net.Gens))
	}
	return m.appendFlows(nil, p), nil
}

// appendFlows appends the DC line flows M·p + Base to dst.
func (m *Model) appendFlows(dst, p []float64) []float64 {
	for li, b := range m.Base {
		f := 0.0
		for j, v := range m.M.RawRow(li) {
			f += v * p[j]
		}
		dst = append(dst, f+b)
	}
	return dst
}

// Cost evaluates the total generation cost (including constant terms) for a
// dispatch p.
func (m *Model) Cost(p []float64) float64 {
	var c float64
	for i := range m.Net.Gens {
		c += m.Net.Gens[i].Cost(p[i])
	}
	return c
}

// HasQuadraticCost reports whether any unit has a strictly convex cost.
func (m *Model) HasQuadraticCost() bool {
	for i := range m.Net.Gens {
		if m.Net.Gens[i].CostA > 0 {
			return true
		}
	}
	return false
}

// Result is a solved economic dispatch.
type Result struct {
	// P is the MW output per generator.
	P []float64
	// Flows is the DC MW flow per line under P.
	Flows []float64
	// Cost is the total generation cost in $/h (including constant
	// terms).
	Cost float64
	// LineDuals holds the shadow price of each line's rating constraint
	// (λ⁺ − λ⁻, nonzero only when congested). Indexed like Net.Lines;
	// entries for unlimited lines are zero.
	LineDuals []float64
	// Binding lists indices of lines whose rating constraint is active
	// (within tolerance) in either direction.
	Binding []int
	// Iterations is the total inner-solver iteration count (simplex pivots
	// or active-set steps) across all constraint-generation rounds.
	Iterations int
	// Rounds is the number of constraint-generation rounds performed.
	Rounds int
}

// Solve runs the DC economic dispatch against the given effective line
// ratings (MW, indexed like Net.Lines; entries ≤ 0 mean unlimited). When
// ratings is nil the network's static/DLR defaults are used.
//
// Internally the flow constraints are generated lazily: the dispatch is
// solved over a growing subset of line limits until no omitted line is
// violated, which is equivalent to the full problem (omitted constraints
// are slack with zero multipliers) and far faster on meshed systems where
// few lines ever bind. Intermediate rounds only look for violated lines in
// the model's flow buffer; the final round alone builds the Result.
func (m *Model) Solve(ratings []float64) (*Result, error) {
	if ratings == nil {
		ratings = m.Net.Ratings(nil)
	}
	if len(ratings) != len(m.Net.Lines) {
		return nil, fmt.Errorf("dispatch: %d ratings for %d lines", len(ratings), len(m.Net.Lines))
	}
	solveSubset := m.solveLP
	if m.HasQuadraticCost() {
		solveSubset = m.solveQP
	}
	// Seed with the lines that bound the previous solve on this model —
	// across bilevel nodes and time steps the binding set is stable. Line
	// rows go in in line-index order, whatever order the binding memory
	// and the violations produced: the QP keeps its working set in row
	// order, so a fixed row order makes each round's result depend only on
	// its final working set.
	inSet := slices.Grow(m.inSet[:0], len(ratings))[:len(ratings)]
	clear(inSet)
	m.inSet = inSet
	for _, li := range m.lastBinding {
		if li < len(inSet) && ratings[li] > 0 {
			inSet[li] = true
		}
	}
	maxRounds := len(m.Net.Lines) + 2
	totalIters := 0
	for round := 0; round < maxRounds; round++ {
		p, duals, iters, err := solveSubset(ratings, inSet)
		if err != nil {
			if m.Metrics != nil && errors.Is(err, ErrInfeasible) {
				m.Metrics.Counter("dispatch_infeasible_total").Inc()
			}
			return nil, err
		}
		totalIters += iters
		m.flows = m.appendFlows(m.flows[:0], p)
		violated := false
		for li, f := range m.flows {
			u := ratings[li]
			if u > 0 && !inSet[li] && math.Abs(f) > u*(1+1e-9)+1e-9 {
				inSet[li] = true
				violated = true
			}
		}
		if !violated {
			res := m.result(p, duals, ratings)
			res.Iterations = totalIters
			res.Rounds = round + 1
			if m.Metrics != nil {
				m.Metrics.Counter("dispatch_solves_total").Inc()
				m.Metrics.Counter("dispatch_rowgen_rounds_total").Add(int64(res.Rounds))
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("dispatch: constraint generation did not converge after %d rounds", maxRounds)
}

// solveLP handles purely linear costs via the simplex solver, enforcing
// flow limits only for the lines in inSet. It returns the dispatch, the
// signed line duals (indexed like Net.Lines), and the pivot count.
func (m *Model) solveLP(ratings []float64, inSet []bool) ([]float64, []float64, int, error) {
	gens := m.Net.Gens
	ng := len(gens)
	prob := lp.NewProblem(ng)
	c := make([]float64, ng)
	for i := range gens {
		c[i] = gens[i].CostB
		if err := prob.SetBounds(i, gens[i].Pmin, gens[i].Pmax); err != nil {
			return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
		}
	}
	if err := prob.SetObjective(c, false); err != nil {
		return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	ones := make([]float64, ng)
	for i := range ones {
		ones[i] = 1
	}
	if _, err := prob.AddConstraint(ones, lp.EQ, m.Demand); err != nil {
		return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	// Line k of lines has the upper row 1+2k and the lower row 2+2k.
	var lines []int
	// AddConstraint copies the row, so one buffer serves every line.
	negRow := make([]float64, ng)
	for li, in := range inSet {
		u := ratings[li]
		if !in || u <= 0 {
			continue
		}
		row := m.M.RawRow(li)
		for j, v := range row {
			negRow[j] = -v
		}
		if _, err := prob.AddConstraint(row, lp.LE, u-m.Base[li]); err != nil {
			return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
		}
		if _, err := prob.AddConstraint(negRow, lp.LE, u+m.Base[li]); err != nil {
			return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
		}
		lines = append(lines, li)
	}
	sol, err := lp.SolveWith(prob, lp.Options{Metrics: m.Metrics, Workspace: m.Workspace})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, nil, 0, ErrInfeasible
	default:
		return nil, nil, 0, fmt.Errorf("dispatch: unexpected LP status %v", sol.Status)
	}
	duals := make([]float64, len(inSet))
	for k, li := range lines {
		// Dual of the ≤ row is ≤ 0 under the lp sign convention; a
		// congested line has negative dual. Flip to a conventional
		// non-negative congestion price signed by direction.
		duals[li] -= sol.Dual[1+2*k]
		duals[li] += sol.Dual[2+2*k]
	}
	return sol.X, duals, sol.Iterations, nil
}

// solveQP handles convex quadratic costs via the active-set solver,
// enforcing flow limits only for the lines in inSet: it sets their rows'
// sides to ±u − Base, opens every other row, and sets the balance target.
// It returns the dispatch, the signed line duals (qp's λ_hi − λ_lo per row,
// which is λ⁺ − λ⁻ per line), and the iteration count.
func (m *Model) solveQP(ratings []float64, inSet []bool) ([]float64, []float64, int, error) {
	prob, err := m.qpProblem()
	if err != nil {
		return nil, nil, 0, err
	}
	inf := math.Inf(1)
	for li, in := range inSet {
		lo, hi := -inf, inf
		if u := ratings[li]; in && u > 0 {
			lo, hi = -u-m.Base[li], u-m.Base[li]
		}
		if err := prob.SetRowBounds(li, lo, hi); err != nil {
			return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
		}
	}
	if err := prob.SetEqualityRHS(0, m.Demand); err != nil {
		return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	sol, err := qp.SolveWith(prob, qp.Options{
		Metrics:   m.Metrics,
		Cache:     &m.kkt,
		Workspace: m.Workspace,
		Start:     &m.start,
	})
	if err != nil {
		if errors.Is(err, qp.ErrInfeasible) {
			return nil, nil, 0, ErrInfeasible
		}
		return nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	return sol.X, sol.IneqDual, sol.Iterations, nil
}

// qpProblem returns the model's dispatch QP, building it on first use: the
// cost curves, the generator limits, the balance row, and one row M_l·p per
// line in line order, whose sides solveQP sets each round. Only ratings and
// demand vary between solves — the Hessian, the balance row, the generator
// bounds, and the gradient behind each row never change — which is exactly
// the contract qp.KKTCache requires, so repeated dispatch solves share base
// factorizations. The rows alias M, which is immutable.
func (m *Model) qpProblem() (*qp.Problem, error) {
	if m.qp != nil {
		return m.qp, nil
	}
	gens := m.Net.Gens
	prob := qp.NewProblem(len(gens))
	ones := make([]float64, len(gens))
	for i := range gens {
		ones[i] = 1
		if err := prob.SetQuadCoeff(i, i, 2*gens[i].CostA); err != nil {
			return nil, fmt.Errorf("dispatch: %w", err)
		}
		if err := prob.SetLinCoeff(i, gens[i].CostB); err != nil {
			return nil, fmt.Errorf("dispatch: %w", err)
		}
		if err := prob.SetBounds(i, gens[i].Pmin, gens[i].Pmax); err != nil {
			return nil, fmt.Errorf("dispatch: %w", err)
		}
	}
	if _, err := prob.AddEquality(ones, m.Demand); err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	for li := range m.Net.Lines {
		if _, err := prob.AddInequality(m.M.RawRow(li), 0); err != nil {
			return nil, fmt.Errorf("dispatch: %w", err)
		}
	}
	m.qp = prob
	return prob, nil
}

// result builds the Result of a solve's final round from its dispatch p,
// its line duals, and the flows in the model's buffer. P, Flows, and
// LineDuals share one array. The binding set also becomes the model's
// warm-start memory.
func (m *Model) result(p, duals, ratings []float64) *Result {
	ng, nl := len(p), len(m.flows)
	buf := make([]float64, ng+2*nl)
	res := &Result{
		P:         buf[:ng:ng],
		Flows:     buf[ng : ng+nl : ng+nl],
		Cost:      m.Cost(p),
		LineDuals: buf[ng+nl:],
	}
	copy(res.P, p)
	copy(res.Flows, m.flows)
	copy(res.LineDuals, duals)
	const bindTol = 1e-5
	m.lastBinding = m.lastBinding[:0]
	for li, f := range m.flows {
		if u := ratings[li]; u > 0 && math.Abs(f)-u > -bindTol*(1+u) {
			m.lastBinding = append(m.lastBinding, li)
		}
	}
	if len(m.lastBinding) > 0 {
		res.Binding = slices.Clone(m.lastBinding)
	}
	return res
}

// SolveRobust is the "attack-aware dispatch" mitigation sketched in Section
// VII: ratings on DLR lines are derated by the given margin (e.g. 0.15 for
// 15%) before dispatching, bounding the violation an in-band rating
// manipulation can cause. It derates the network's static/DLR defaults; use
// SolveRobustRatings to derate a specific rating snapshot.
func (m *Model) SolveRobust(margin float64) (*Result, error) {
	return m.SolveRobustRatings(m.Net.Ratings(nil), margin)
}

// SolveRobustRatings derates the DLR lines of an explicit rating snapshot
// by margin and dispatches against the result.
func (m *Model) SolveRobustRatings(ratings []float64, margin float64) (*Result, error) {
	if margin < 0 || margin >= 1 {
		return nil, fmt.Errorf("dispatch: robust margin %g outside [0, 1)", margin)
	}
	if len(ratings) != len(m.Net.Lines) {
		return nil, fmt.Errorf("dispatch: %d ratings for %d lines", len(ratings), len(m.Net.Lines))
	}
	derated := make([]float64, len(ratings))
	copy(derated, ratings)
	for _, li := range m.Net.DLRLines() {
		derated[li] *= 1 - margin
	}
	return m.Solve(derated)
}
