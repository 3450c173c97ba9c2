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
// the per-clone solver state (the QP and its row sides, the QP working set,
// the KKT factor cache, the QP solution storage) and SetDemands rewrites
// Base/Demand.
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
	// start hot-starts the dual QP method from the working set the
	// previous QP solve on this model ended with. It is per-clone mutable
	// state; results do not depend on it, only the work does (see
	// qp.Options.Start).
	start qp.WorkingSet
	// kkt carries QP factorization work across solves: the dispatch QP's
	// matrix family is fixed per model (only ratings and demand vary), so
	// the bordered KKT path's base LU, border columns, and Schur factors
	// are reusable at every case size. Like start it is per-clone mutable
	// state, never shared between workers.
	kkt qp.KKTCache
	// qp is the dispatch QP, built on the first QP solve (see qpProblem);
	// each solve re-solves it after setting the row sides that changed and
	// the demand. Per-clone mutable state like kkt.
	qp *qp.Problem
	// sol receives every QP solve's solution (qp.SolveInto), so a re-solve
	// allocates no QP result; Solve copies what its Result keeps out of it.
	// Per-clone mutable state like kkt.
	sol qp.Solution
	// Metrics, when non-nil, receives dispatch_* counters and forwards to
	// the inner LP/QP solvers' lp_*/qp_* counters. Nil costs nothing.
	Metrics *telemetry.Registry
	// Workspace, when non-nil, supplies the inner LP/QP solvers' working
	// storage, reused across solves. Like start it is per-clone mutable
	// state: a workspace belongs to exactly one worker at a time and is
	// never shared concurrently. ShallowClone deliberately leaves it nil —
	// each worker attaches its own. When nil, every inner solve borrows one
	// from lp's pool; results are bit-identical either way.
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

// ResetWarmStart clears the cross-solve warm-start memory (the QP working
// set), putting the model in the state a fresh ShallowClone starts in. The
// KKT factorization cache is deliberately kept: cached factors — sparse
// base and Schur complements alike — are bit-identical to freshly computed
// ones (same matrices, deterministic factorization), so reuse never changes
// results, whichever Schur factors the cache still holds. That is what lets
// a sequential fan-out share one model across tasks instead of cloning per
// task.
func (m *Model) ResetWarmStart() { m.start.Reset() }

// WarmStart is a snapshot of a model's warm-start memory.
type WarmStart struct{ start qp.WorkingSet }

// WarmStartState returns a copy of the warm-start memory, for callers that
// reset it per task and want to restore the pre-fan-out state afterwards.
func (m *Model) WarmStartState() (w WarmStart) {
	w.start.CopyFrom(&m.start)
	return w
}

// RestoreWarmStart overwrites the warm-start memory with a snapshot from
// WarmStartState.
func (m *Model) RestoreWarmStart(w WarmStart) { m.start.CopyFrom(&w.start) }

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
	f, err := m.M.MulVec(p)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	for li, b := range m.Base {
		f[li] += b
	}
	return f, nil
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

// StrictlyConvex reports whether every unit has a strictly convex cost:
// the dispatch QP's Hessian is then positive definite, the dual method's
// precondition, and the optimum is unique for every rating vector.
func (m *Model) StrictlyConvex() bool {
	for i := range m.Net.Gens {
		if m.Net.Gens[i].CostA <= 0 {
			return false
		}
	}
	return len(m.Net.Gens) > 0
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
	// LineDuals holds one entry per line whose rating constraint has a
	// nonzero shadow price (λ⁺ − λ⁻, signed by the flow's direction), in
	// line order; every other line's price is zero. Dual looks one up.
	LineDuals []LineDual
	// Binding lists indices of lines whose rating constraint is active
	// (within tolerance) in either direction.
	Binding []int
	// Iterations is the inner solver's iteration count (simplex pivots or
	// active-set steps).
	Iterations int
}

// LineDual is the shadow price of one line's rating constraint.
type LineDual struct {
	// Line indexes Net.Lines.
	Line int
	// Dual is λ⁺ − λ⁻: positive when the From→To limit binds, negative
	// when the To→From one does.
	Dual float64
}

// Dual returns the shadow price of line li's rating constraint, zero when
// it has none.
func (r *Result) Dual(li int) float64 {
	i, ok := slices.BinarySearchFunc(r.LineDuals, li, func(d LineDual, li int) int { return d.Line - li })
	if !ok {
		return 0
	}
	return r.LineDuals[i].Dual
}

// Solve runs the DC economic dispatch against the given effective line
// ratings (MW, indexed like Net.Lines; entries ≤ 0 mean unlimited). When
// ratings is nil the network's static/DLR defaults are used.
//
// It makes one LP or QP solve that enforces every rated line. The QP's
// dual method adds violated line rows as it goes, pricing first the rows
// the model's previous solve ended with, so the few lines that ever bind
// on a meshed system cost the work, not the many that never do.
func (m *Model) Solve(ratings []float64) (*Result, error) {
	if ratings == nil {
		ratings = m.Net.Ratings(nil)
	}
	if len(ratings) != len(m.Net.Lines) {
		return nil, fmt.Errorf("dispatch: %d ratings for %d lines", len(ratings), len(m.Net.Lines))
	}
	solve := m.solveLP
	if m.HasQuadraticCost() {
		solve = m.solveQP
	}
	p, mp, duals, iters, err := solve(ratings)
	if err != nil {
		if m.Metrics != nil && errors.Is(err, ErrInfeasible) {
			m.Metrics.Counter("dispatch_infeasible_total").Inc()
		}
		return nil, err
	}
	res := m.result(p, mp, duals, ratings)
	res.Iterations = iters
	if m.Metrics != nil {
		m.Metrics.Counter("dispatch_solves_total").Inc()
		// One round per solve: the QP adds the violated line rows itself.
		m.Metrics.Counter("dispatch_rowgen_rounds_total").Inc()
	}
	return res, nil
}

// solveLP handles purely linear costs via the simplex solver, enforcing
// every rated line's flow limits. It returns the dispatch p, M·p, the
// signed line duals (indexed like Net.Lines), and the pivot count.
func (m *Model) solveLP(ratings []float64) ([]float64, []float64, []float64, int, error) {
	gens := m.Net.Gens
	ng := len(gens)
	prob := lp.NewProblem(ng)
	c := make([]float64, ng)
	for i := range gens {
		c[i] = gens[i].CostB
		if err := prob.SetBounds(i, gens[i].Pmin, gens[i].Pmax); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
		}
	}
	if err := prob.SetObjective(c, false); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	ones := make([]float64, ng)
	for i := range ones {
		ones[i] = 1
	}
	if _, err := prob.AddConstraint(ones, lp.EQ, m.Demand); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	// Line k of lines has the upper row 1+2k and the lower row 2+2k.
	var lines []int
	// AddConstraint copies the row, so one buffer serves every line.
	negRow := make([]float64, ng)
	for li, u := range ratings {
		if u <= 0 {
			continue
		}
		row := m.M.RawRow(li)
		for j, v := range row {
			negRow[j] = -v
		}
		if _, err := prob.AddConstraint(row, lp.LE, u-m.Base[li]); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
		}
		if _, err := prob.AddConstraint(negRow, lp.LE, u+m.Base[li]); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
		}
		lines = append(lines, li)
	}
	sol, err := lp.SolveWith(prob, lp.Options{Metrics: m.Metrics, Workspace: m.Workspace})
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, nil, nil, 0, ErrInfeasible
	default:
		return nil, nil, nil, 0, fmt.Errorf("dispatch: unexpected LP status %v", sol.Status)
	}
	duals := make([]float64, len(ratings))
	for k, li := range lines {
		// Dual of the ≤ row is ≤ 0 under the lp sign convention; a
		// congested line has negative dual. Flip to a conventional
		// non-negative congestion price signed by direction.
		duals[li] -= sol.Dual[1+2*k]
		duals[li] += sol.Dual[2+2*k]
	}
	mp, err := m.M.MulVec(sol.X)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	return sol.X, mp, duals, sol.Iterations, nil
}

// solveQP handles convex quadratic costs via the active-set solver: it sets
// every rated line's row sides to ±u − Base, opens each unrated line's row,
// and sets the balance target. A side is written only when it differs, bit
// for bit, from the one the QP holds, so a re-solve that moves one rating
// writes one row, while one after SetDemands (which moves Base) writes
// every side it changed. It returns the dispatch p, M·p (the rows'
// activities), the signed line duals (qp's λ_hi − λ_lo per row, which is
// λ⁺ − λ⁻ per line), and the iteration count; the vectors live in the
// model's QP solution until the next solve.
func (m *Model) solveQP(ratings []float64) ([]float64, []float64, []float64, int, error) {
	prob, err := m.qpProblem()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	inf := math.Inf(1)
	for li, u := range ratings {
		lo, hi := -inf, inf
		if u > 0 {
			lo, hi = -u-m.Base[li], u-m.Base[li]
		}
		if plo, phi := prob.RowBounds(li); sameBits(plo, lo) && sameBits(phi, hi) {
			continue
		}
		if err := prob.SetRowBounds(li, lo, hi); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
		}
	}
	if err := prob.SetEqualityRHS(0, m.Demand); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	err = qp.SolveInto(prob, qp.Options{
		Metrics:   m.Metrics,
		Cache:     &m.kkt,
		Workspace: m.Workspace,
		Start:     &m.start,
	}, &m.sol)
	if err != nil {
		if errors.Is(err, qp.ErrInfeasible) {
			return nil, nil, nil, 0, ErrInfeasible
		}
		return nil, nil, nil, 0, fmt.Errorf("dispatch: %w", err)
	}
	return m.sol.X, m.sol.Activity, m.sol.IneqDual, m.sol.Iterations, nil
}

// sameBits reports whether a and b are the same float64 bit pattern, which
// tells −0 from +0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

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

// result builds the Result of a solve from its dispatch p, M·p, and its
// dense line duals, none of which it keeps. P and Flows share one array;
// LineDuals and Binding are allocated only when nonempty.
func (m *Model) result(p, mp, duals, ratings []float64) *Result {
	ng, nl := len(p), len(m.Base)
	buf := make([]float64, ng+nl)
	res := &Result{
		P:     buf[:ng:ng],
		Flows: buf[ng:],
		Cost:  m.Cost(p),
	}
	copy(res.P, p)
	for li, b := range m.Base {
		res.Flows[li] = mp[li] + b
	}
	nz := 0
	for _, d := range duals {
		if d != 0 {
			nz++
		}
	}
	if nz > 0 {
		res.LineDuals = make([]LineDual, 0, nz)
		for li, d := range duals {
			if d != 0 {
				res.LineDuals = append(res.LineDuals, LineDual{Line: li, Dual: d})
			}
		}
	}
	const bindTol = 1e-5
	var stack [32]int
	binding := stack[:0]
	for li, f := range res.Flows {
		if u := ratings[li]; u > 0 && math.Abs(f)-u > -bindTol*(1+u) {
			binding = append(binding, li)
		}
	}
	if len(binding) > 0 {
		res.Binding = slices.Clone(binding)
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
