// Package qp implements active-set solvers for convex quadratic programs:
//
//	minimize    ½·xᵀHx + cᵀx
//	subject to  A x  = b      (equality rows)
//	            lo ≤ G x ≤ hi (inequality rows; either side may be infinite)
//	            l ≤ x ≤ u     (bounds, folded into G internally)
//
// H must be symmetric positive semidefinite and positive definite on the
// feasible directions. When H is positive definite (economic dispatch with
// strictly convex generation costs) the Goldfarb–Idnani dual active-set
// method runs: it starts at the equality-constrained minimizer and adds
// violated rows, so it needs no feasible start. Otherwise (a merely convex
// problem, such as a dispatch with a linear-cost unit) a primal active-set
// method runs from a feasible starting point found with the lp package.
// Both iterate on equality-constrained KKT systems solved via LU.
package qp

import (
	"errors"
	"fmt"
	"math"

	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/telemetry"
)

// ErrIterLimit is returned when the active-set loop exceeds its budget.
var ErrIterLimit = errors.New("qp: iteration limit exceeded")

// ErrInfeasible is returned when no point satisfies the constraints.
var ErrInfeasible = errors.New("qp: infeasible")

// Problem is a convex QP. Create with NewProblem. Its right-hand sides —
// equality targets and inequality row bounds — may be changed between
// solves (SetEqualityRHS, SetRowBounds), so one Problem can be re-solved
// under varying limits without being rebuilt.
type Problem struct {
	n   int
	h   *mat.Matrix
	c   []float64
	aeq [][]float64
	beq []float64
	// Inequality row i is lin[i] ≤ gin[i]ᵀx ≤ hin[i]; an infinite side is
	// absent.
	gin   [][]float64
	hin   []float64
	lin   []float64
	lower []float64
	upper []float64
	// offDiag counts the nonzero off-diagonal entries of h.
	offDiag int
}

// NewProblem returns a QP with n variables, zero objective, and free bounds.
func NewProblem(n int) *Problem {
	p := &Problem{
		n:     n,
		h:     mat.New(n, n),
		c:     make([]float64, n),
		lower: make([]float64, n),
		upper: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.lower[i] = math.Inf(-1)
		p.upper[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.n }

// SetQuadCoeff sets H[i][j] (and H[j][i], keeping H symmetric). v must be
// finite.
func (p *Problem) SetQuadCoeff(i, j int, v float64) error {
	if i < 0 || i >= p.n || j < 0 || j >= p.n {
		return fmt.Errorf("qp: quad index (%d,%d) out of range", i, j)
	}
	if !isFinite(v) {
		return fmt.Errorf("qp: quad coefficient (%d,%d) is %g", i, j, v)
	}
	if i != j {
		if old := p.h.At(i, j); old == 0 && v != 0 {
			p.offDiag += 2
		} else if old != 0 && v == 0 {
			p.offDiag -= 2
		}
	}
	p.h.Set(i, j, v)
	p.h.Set(j, i, v)
	return nil
}

// SetLinCoeff sets the linear objective coefficient of variable j, which
// must be finite.
func (p *Problem) SetLinCoeff(j int, v float64) error {
	if j < 0 || j >= p.n {
		return fmt.Errorf("qp: linear index %d out of range", j)
	}
	if !isFinite(v) {
		return fmt.Errorf("qp: linear coefficient %d is %g", j, v)
	}
	p.c[j] = v
	return nil
}

// SetBounds sets the bounds of variable j. Use -Inf/+Inf for an unbounded
// lower/upper side; NaN, a lower bound of +Inf, and an upper bound of -Inf
// are rejected.
func (p *Problem) SetBounds(j int, lo, hi float64) error {
	if j < 0 || j >= p.n {
		return fmt.Errorf("qp: bound index %d out of range", j)
	}
	if err := checkSides("variable", j, lo, hi); err != nil {
		return err
	}
	p.lower[j] = lo
	p.upper[j] = hi
	return nil
}

// checkSides validates a [lo, hi] pair as SetBounds and SetRowBounds
// accept it.
func checkSides(what string, i int, lo, hi float64) error {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 1) || math.IsInf(hi, -1) {
		return fmt.Errorf("qp: %s %d has invalid bounds [%g, %g]", what, i, lo, hi)
	}
	if lo > hi {
		return fmt.Errorf("qp: %s %d has lower bound %g > upper bound %g", what, i, lo, hi)
	}
	return nil
}

// AddEquality appends an equality row aᵀx = b and returns its index.
// Coefficients and b must be finite.
func (p *Problem) AddEquality(a []float64, b float64) (int, error) {
	if len(a) != p.n {
		return 0, fmt.Errorf("qp: equality row has %d coefficients, want %d", len(a), p.n)
	}
	if err := checkRow(a, b); err != nil {
		return 0, err
	}
	row := make([]float64, p.n)
	copy(row, a)
	p.aeq = append(p.aeq, row)
	p.beq = append(p.beq, b)
	return len(p.aeq) - 1, nil
}

// AddInequality appends an inequality row gᵀx ≤ h and returns its index;
// SetRowBounds gives it a lower side or moves either side. Coefficients and
// h must be finite. The problem keeps g itself, not a copy: g must not
// change while the problem is in use.
func (p *Problem) AddInequality(g []float64, h float64) (int, error) {
	if len(g) != p.n {
		return 0, fmt.Errorf("qp: inequality row has %d coefficients, want %d", len(g), p.n)
	}
	if err := checkRow(g, h); err != nil {
		return 0, err
	}
	p.gin = append(p.gin, g)
	p.hin = append(p.hin, h)
	p.lin = append(p.lin, math.Inf(-1))
	return len(p.gin) - 1, nil
}

// SetRowBounds sets inequality row i to lo ≤ gᵀx ≤ hi. Use -Inf/+Inf for an
// absent side: a row with both sides infinite constrains nothing. The sides
// are validated as SetBounds validates a variable's.
func (p *Problem) SetRowBounds(i int, lo, hi float64) error {
	if i < 0 || i >= len(p.gin) {
		return fmt.Errorf("qp: inequality row %d out of range", i)
	}
	if err := checkSides("inequality row", i, lo, hi); err != nil {
		return err
	}
	p.lin[i], p.hin[i] = lo, hi
	return nil
}

// RowBounds returns inequality row i's sides as SetRowBounds last set them
// (an absent side is infinite). i must be in range.
func (p *Problem) RowBounds(i int) (lo, hi float64) { return p.lin[i], p.hin[i] }

// SetEqualityRHS sets the target of equality row e, which must be finite.
func (p *Problem) SetEqualityRHS(e int, b float64) error {
	if e < 0 || e >= len(p.aeq) {
		return fmt.Errorf("qp: equality row %d out of range", e)
	}
	if !isFinite(b) {
		return fmt.Errorf("qp: equality row %d target is %g", e, b)
	}
	p.beq[e] = b
	return nil
}

// checkRow rejects a constraint row with a non-finite coefficient or
// right-hand side.
func checkRow(a []float64, rhs float64) error {
	for k, v := range a {
		if !isFinite(v) {
			return fmt.Errorf("qp: constraint coefficient %d is %g", k, v)
		}
	}
	if !isFinite(rhs) {
		return fmt.Errorf("qp: constraint right-hand side is %g", rhs)
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Solution is the result of a successful solve. SolveInto reuses one
// Solution's storage from solve to solve.
type Solution struct {
	// X is the optimal point.
	X []float64
	// Objective is ½xᵀHx + cᵀx at X.
	Objective float64
	// EqDual holds one multiplier per equality row (ν in H x + c + Aᵀν +
	// Gᵀλ = 0).
	EqDual []float64
	// IneqDual holds one multiplier per user inequality row, λ_hi − λ_lo:
	// the upper side's multiplier less the lower side's. It is positive
	// where the upper side binds, negative where the lower side does, and
	// never negative for a one-sided gᵀx ≤ h row.
	IneqDual []float64
	// Activity holds gᵀX per user inequality row, open rows included.
	Activity []float64
	// LowerDual and UpperDual hold the non-negative multipliers of active
	// variable bounds.
	LowerDual []float64
	UpperDual []float64
	// Iterations is the number of active-set iterations performed.
	Iterations int

	// buf backs the six vectors above; SolveInto reslices it when it has
	// room.
	buf []float64
}

// Options tune the solver.
type Options struct {
	// Metrics, when non-nil, receives qp_* solve/iteration counters
	// (including the KKT solve and factorization work counts) and forwards
	// to the feasibility LP's lp_* counters when the primal method runs.
	// With a Cache, the qp_* instruments are looked up once, not per solve.
	Metrics *telemetry.Registry
	// Cache, when non-nil, lets the bordered KKT path reuse its base
	// factorization, border columns, and Schur factors across solves of
	// structurally identical problems, and remembers whether the Hessian
	// is positive definite. The caller asserts that the Hessian, the
	// equality-row gradients, and the gradient of every inequality row (by
	// index) are unchanged since the cache was filled. Objective vectors
	// and all right-hand sides may differ, and row sides and bounds may
	// open and close. A cached factor is the one a fresh factorization
	// computes, so results never depend on what the cache holds. Not safe
	// for concurrent use.
	Cache *KKTCache
	// Workspace supplies the active-set iteration's working storage
	// (pricing candidates, Schur right-hand-side and memo buffers, step
	// direction, the Schur matrix) in its QP slot, reused across solves so
	// a steady-state QP re-solve under a warm KKTCache allocates nothing
	// through SolveInto, and only the returned Solution through SolveWith.
	// When nil, the solve borrows a workspace from lp's pool for the call.
	// The primal method's feasibility LP always runs on a borrowed one: its
	// solution vector becomes the iterate and is mutated in place, so it
	// must be a fresh copy. A Solution never aliases the workspace, and
	// results are bit-identical whichever workspace ran the solve. Not safe
	// for concurrent use.
	Workspace *lp.Workspace
	// Start, when non-nil, hot-starts the dual method from a working set
	// carried across solves: on entry its rows that are not open seed the
	// working set and the pricing candidates, and on return it holds the
	// final working set (emptied on error). It reuses its storage; the
	// primal method ignores it. The working set is kept in row order, so
	// every field of the result but Iterations depends on the final working
	// set only, not on the hint. Not safe for concurrent use.
	Start *WorkingSet

	// denseKKT solves every KKT system by a fresh dense factorization: the
	// bordered path's differential oracle, set only by tests (see
	// export_test.go).
	denseKKT bool
	// maxIter caps active-set iterations (default 2000), and tol is the
	// numeric tolerance (default 1e-8). Only this package's tests set them.
	maxIter int
	tol     float64
}

func (o Options) withDefaults() Options {
	if o.maxIter <= 0 {
		o.maxIter = 2000
	}
	if o.tol <= 0 {
		o.tol = 1e-8
	}
	return o
}

// ineqRow is one side of a user row or of a variable's bounds in
// sign·gᵀx ≤ h form: an upper side has sign +1 and h = hi, a lower side sign
// −1 and h = −lo. An infinite side has h = +Inf: it is open, never
// violated, and never priced.
type ineqRow struct {
	g    []float64 // nil means a bound row on variable idx
	idx  int       // user row index, or the bounded variable
	sign float64
	h    float64
}

// numSides is the number of inequality sides of p: two per user row and
// two per variable.
func (p *Problem) numSides() int { return 2 * (len(p.gin) + p.n) }

// side returns p's inequality side at position i: user row k's upper side
// at 2k and lower side at 2k+1, then variable j's upper bound at 2·mi+2j and
// lower bound at 2·mi+2j+1, for mi user rows. Every side has its position
// whether it is open or not, so a position is the side's identity across
// the solves of one problem family: the KKTCache's columns and dots and
// the WorkingSet hot start are indexed by it.
func (p *Problem) side(i int) ineqRow {
	user := 2 * len(p.gin)
	if i < user {
		k := i / 2
		if i%2 == 0 {
			return ineqRow{g: p.gin[k], idx: k, sign: 1, h: p.hin[k]}
		}
		return ineqRow{g: p.gin[k], idx: k, sign: -1, h: -p.lin[k]}
	}
	j := (i - user) / 2
	if i%2 == 0 {
		return ineqRow{idx: j, sign: 1, h: p.upper[j]}
	}
	return ineqRow{idx: j, sign: -1, h: -p.lower[j]}
}

// open reports whether the side is infinite: it constrains nothing.
func (r ineqRow) open() bool { return math.IsInf(r.h, 1) }

// dot is the row's sign·gᵀv: its value at a point, or its rate along a
// direction.
func (r ineqRow) dot(v []float64) float64 {
	if r.g != nil {
		return r.sign * mat.Dot(r.g, v)
	}
	return r.sign * v[r.idx]
}

// SolveWith solves the QP with explicit options: by the dual method when H
// is positive definite, by the primal method from an LP feasible start
// otherwise. It returns a new Solution; SolveInto reuses one.
func SolveWith(p *Problem, opts Options) (*Solution, error) {
	sol := &Solution{}
	if err := SolveInto(p, opts, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveInto solves the QP as SolveWith does and writes the solution into
// dst, reusing the storage of a Solution an earlier SolveInto filled, so a
// re-solve of a problem whose size is unchanged allocates no result. The
// solution's vectors are dst's own: they never alias the workspace, and
// the next SolveInto into dst overwrites them. On error dst's contents are
// unspecified.
func SolveInto(p *Problem, opts Options, dst *Solution) error {
	return solve(p, opts, false, dst)
}

// solve is SolveInto; primal forces the primal method even when H is
// positive definite, which makes it the dual method's differential oracle.
func solve(p *Problem, opts Options, primal bool, dst *Solution) error {
	opts = opts.withDefaults()
	var local solveMetrics
	m := &local
	if opts.Cache != nil {
		m = &opts.Cache.metrics
	}
	if opts.Metrics == nil {
		m = nil
	} else if m.reg != opts.Metrics {
		*m = solveMetrics{reg: opts.Metrics}
	}
	if m != nil {
		m.counter(qpSolves).Inc()
	}
	ws := opts.Workspace
	if ws == nil {
		ws = lp.GetWorkspace()
		defer lp.PutWorkspace(ws)
	}
	sc := scratchFrom(ws)
	defer sc.release()
	var as *activeSet
	var err error
	if !primal && positiveDefinite(p, opts.Cache) {
		as = sc.attach(p, nil, opts)
		err = as.runDual(dst)
	} else {
		var x []float64
		if x, err = feasibleStart(p, opts); err == nil {
			as = sc.attach(p, x, opts)
			err = as.run(dst)
		}
	}
	if m != nil {
		if as != nil {
			m.counter(qpKKTSolves).Add(int64(as.kktSolves))
			m.counter(qpKKTFactors).Add(int64(as.kktFactors))
		}
		if err == nil {
			m.counter(qpIterations).Add(int64(dst.Iterations))
			if m.iterHist == nil {
				m.iterHist = m.reg.Histogram("qp_iterations", telemetry.IterBuckets)
			}
			m.iterHist.Observe(float64(dst.Iterations))
		}
		switch {
		case errors.Is(err, ErrInfeasible):
			m.counter(qpInfeasible).Inc()
		case err != nil && as != nil:
			m.counter(qpErrors).Inc()
		}
	}
	return err
}

// The qp_* counters a solve feeds, indexing solveMetrics.counters.
const (
	qpSolves = iota
	qpKKTSolves
	qpKKTFactors
	qpIterations
	qpInfeasible
	qpErrors
	numQPCounters
)

var qpCounterNames = [numQPCounters]string{
	qpSolves:     "qp_solves_total",
	qpKKTSolves:  "qp_kkt_solves_total",
	qpKKTFactors: "qp_kkt_factorizations_total",
	qpIterations: "qp_iterations_total",
	qpInfeasible: "qp_infeasible_total",
	qpErrors:     "qp_errors_total",
}

// solveMetrics holds the instruments a solve feeds in registry reg, each
// looked up on first use, so that solves through one KKTCache look a name
// up in the registry's map once rather than once per solve. An instrument
// is created when a solve first feeds it, as a direct lookup would.
type solveMetrics struct {
	reg      *telemetry.Registry
	counters [numQPCounters]*telemetry.Counter
	iterHist *telemetry.Histogram
}

// counter returns counter i, looking it up on first use.
func (m *solveMetrics) counter(i int) *telemetry.Counter {
	if m.counters[i] == nil {
		m.counters[i] = m.reg.Counter(qpCounterNames[i])
	}
	return m.counters[i]
}

// positiveDefinite reports whether H is positive definite, which selects
// the dual method. The KKTCache contract fixes H, so a cache keeps the
// verdict after its first solve; without one it is decided per solve.
func positiveDefinite(p *Problem, c *KKTCache) bool {
	if c != nil && c.pdKnown && c.pdN == p.n {
		return c.pd
	}
	_, err := mat.FactorCholesky(p.h)
	if c != nil {
		c.pdKnown, c.pdN, c.pd = true, p.n, err == nil
	}
	return err == nil
}

// feasibleStart finds any point satisfying the constraints via the LP solver.
func feasibleStart(p *Problem, opts Options) ([]float64, error) {
	lpOpts := lp.Options{Metrics: opts.Metrics}
	prob := lp.NewProblem(p.n)
	for j := 0; j < p.n; j++ {
		if err := prob.SetBounds(j, p.lower[j], p.upper[j]); err != nil {
			return nil, fmt.Errorf("qp: %w", err)
		}
	}
	for i, a := range p.aeq {
		if _, err := prob.AddConstraint(a, lp.EQ, p.beq[i]); err != nil {
			return nil, fmt.Errorf("qp: %w", err)
		}
	}
	for i, g := range p.gin {
		var err error
		if !math.IsInf(p.hin[i], 1) {
			_, err = prob.AddConstraint(g, lp.LE, p.hin[i])
		}
		if err == nil && !math.IsInf(p.lin[i], -1) {
			_, err = prob.AddConstraint(g, lp.GE, p.lin[i])
		}
		if err != nil {
			return nil, fmt.Errorf("qp: %w", err)
		}
	}
	// Minimizing the linear part of the QP objective gives a start point
	// that is usually close to the QP optimum's active set.
	_ = prob.SetObjective(p.c, false)
	sol, err := lp.SolveWith(prob, lpOpts)
	if err != nil {
		// A cᵀx phase can be unbounded even when the QP is well posed;
		// retry with a pure feasibility objective.
		prob.SetMaximize(false)
		zero := make([]float64, p.n)
		_ = prob.SetObjective(zero, false)
		sol, err = lp.SolveWith(prob, lpOpts)
		if err != nil {
			return nil, fmt.Errorf("qp: feasibility LP failed: %w", err)
		}
	}
	switch sol.Status {
	case lp.Optimal:
		return sol.X, nil
	case lp.Unbounded:
		zero := make([]float64, p.n)
		_ = prob.SetObjective(zero, false)
		sol, err = lp.SolveWith(prob, lpOpts)
		if err != nil {
			return nil, fmt.Errorf("qp: feasibility LP failed: %w", err)
		}
		if sol.Status != lp.Optimal {
			return nil, ErrInfeasible
		}
		return sol.X, nil
	default:
		return nil, ErrInfeasible
	}
}
