// Package lp implements the linear-programming layer shared by the
// economic-dispatch, MILP, and bilevel attack packages. Problems are
// bounded-variable LPs with general (two-sided) bounds:
//
//	minimize    cᵀx
//	subject to  aᵢᵀx {≤,=,≥} bᵢ   for each constraint row i
//	            l ≤ x ≤ u         (entries may be ±Inf)
//
// One engine solves every problem: a bounded-variable revised simplex
// (two-phase, Dantzig pricing with a Bland's-rule fallback, bound-flipping
// ratio tests). It stores the constraint matrix once in compressed-column
// form, keeps the basis inverse implicit — a basis LU factorization updated
// per pivot with product-form eta terms — and prices through FTRAN/BTRAN
// solves. Two kernels factor the basis: a sparse Markowitz LU for large
// sparse problems (the KKT systems of power networks, whose rows are
// overwhelmingly zero) and a dense partial-pivoting LU for the small or
// dense rest, where the sparse bookkeeping costs more than it saves. Warm
// starts from a Basis snapshot restore primal feasibility with a
// bound-flipping dual simplex and certify every verdict, Infeasible by an
// independent Farkas check. A cold two-phase dense tableau lives in this
// package's tests as the differential-testing oracle.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/edsec/edattack/internal/telemetry"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota + 1 // aᵀx ≤ b
	GE                     // aᵀx ≥ b
	EQ                     // aᵀx = b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrIterLimit is returned when the simplex exceeds its iteration budget.
var ErrIterLimit = errors.New("lp: iteration limit exceeded")

// Constraint is one linear constraint row in dense form, as accepted by
// AddConstraint and returned by Problem.ConstraintAt. Coeffs has one entry
// per problem variable.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

// conRow is the native storage of one constraint: sorted sparse
// index/value pairs. Rows are stored sparse so KKT/big-M assembly and row
// generation append rows without copying dense slabs, and so the revised
// simplex can build its column file straight from the problem.
type conRow struct {
	ind []int // strictly increasing
	val []float64
	rel Relation
	rhs float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with NewProblem. A Problem is not safe for
// concurrent solves. The setters reject non-finite data, so every stored
// coefficient is finite and every variable has lower ≤ upper, neither NaN;
// the engine relies on it.
type Problem struct {
	nvars    int
	c        []float64
	maximize bool
	lower    []float64
	upper    []float64
	rows     []conRow
	nnz      int // total stored coefficients across rows

	// rev counts structural changes (added rows); an engine a Workspace
	// retains for this problem is only valid while rev is unchanged. Bound
	// and objective edits do not invalidate it — B⁻¹A does not depend on
	// them.
	rev int
}

// NewProblem returns a problem with n variables, objective 0, and default
// bounds (-Inf, +Inf).
func NewProblem(n int) *Problem {
	p := &Problem{
		nvars: n,
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
func (p *Problem) NumVars() int { return p.nvars }

// NumConstraints returns the number of constraint rows.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// NNZ returns the number of stored constraint coefficients across all rows.
func (p *Problem) NNZ() int { return p.nnz }

// Density returns NNZ divided by rows×vars — the fill fraction of the
// constraint matrix, used by the kernel-selection rule and recorded by
// benchmark baselines. An empty problem has density 0.
func (p *Problem) Density() float64 {
	if len(p.rows) == 0 || p.nvars == 0 {
		return 0
	}
	return float64(p.nnz) / (float64(len(p.rows)) * float64(p.nvars))
}

// ConstraintAt returns row i in dense form (a fresh copy).
func (p *Problem) ConstraintAt(i int) Constraint {
	r := p.rows[i]
	coeffs := make([]float64, p.nvars)
	for k, j := range r.ind {
		coeffs[j] = r.val[k]
	}
	return Constraint{Coeffs: coeffs, Rel: r.rel, RHS: r.rhs}
}

// SetObjective sets the linear objective. If maximize is true the problem is
// max cᵀx; internally it is negated. Every coefficient must be finite.
func (p *Problem) SetObjective(c []float64, maximize bool) error {
	if len(c) != p.nvars {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), p.nvars)
	}
	for j, v := range c {
		if !isFinite(v) {
			return fmt.Errorf("lp: objective coefficient %d is %g", j, v)
		}
	}
	copy(p.c, c)
	p.maximize = maximize
	return nil
}

// SetObjectiveCoeff sets a single objective coefficient, which must be
// finite.
func (p *Problem) SetObjectiveCoeff(j int, v float64) error {
	if j < 0 || j >= p.nvars {
		return fmt.Errorf("lp: objective index %d out of range [0,%d)", j, p.nvars)
	}
	if !isFinite(v) {
		return fmt.Errorf("lp: objective coefficient %d is %g", j, v)
	}
	p.c[j] = v
	return nil
}

// SetMaximize toggles between maximization and minimization.
func (p *Problem) SetMaximize(maximize bool) { p.maximize = maximize }

// IsMaximize reports whether the problem maximizes its objective.
func (p *Problem) IsMaximize() bool { return p.maximize }

// ObjectiveCoeff returns the objective coefficient of variable j.
func (p *Problem) ObjectiveCoeff(j int) float64 { return p.c[j] }

// SetBounds sets the bounds of variable j. Use -Inf/+Inf for an unbounded
// lower/upper side; NaN, a lower bound of +Inf, and an upper bound of -Inf
// are rejected.
func (p *Problem) SetBounds(j int, lo, hi float64) error {
	if j < 0 || j >= p.nvars {
		return fmt.Errorf("lp: bound index %d out of range [0,%d)", j, p.nvars)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 1) || math.IsInf(hi, -1) {
		return fmt.Errorf("lp: variable %d has invalid bounds [%g, %g]", j, lo, hi)
	}
	if lo > hi {
		return fmt.Errorf("lp: variable %d has lower bound %g > upper bound %g", j, lo, hi)
	}
	p.lower[j] = lo
	p.upper[j] = hi
	return nil
}

// Bounds returns the bounds of variable j.
func (p *Problem) Bounds(j int) (lo, hi float64) { return p.lower[j], p.upper[j] }

// AddConstraint appends a dense constraint row and returns its index. Only
// the nonzero coefficients are stored. Coefficients and rhs must be finite.
func (p *Problem) AddConstraint(coeffs []float64, rel Relation, rhs float64) (int, error) {
	if len(coeffs) != p.nvars {
		return 0, fmt.Errorf("lp: constraint has %d coefficients, want %d", len(coeffs), p.nvars)
	}
	if err := checkRow(coeffs, rel, rhs); err != nil {
		return 0, err
	}
	nz := 0
	for _, v := range coeffs {
		if v != 0 {
			nz++
		}
	}
	ind := make([]int, 0, nz)
	val := make([]float64, 0, nz)
	for j, v := range coeffs {
		if v != 0 {
			ind = append(ind, j)
			val = append(val, v)
		}
	}
	return p.appendRow(conRow{ind: ind, val: val, rel: rel, rhs: rhs}), nil
}

// AddSparseConstraint appends a constraint given as index→coefficient pairs,
// stored sparsely. Duplicate indices are summed; indices need not be sorted.
// Coefficients and rhs must be finite.
func (p *Problem) AddSparseConstraint(idx []int, coeffs []float64, rel Relation, rhs float64) (int, error) {
	if len(idx) != len(coeffs) {
		return 0, fmt.Errorf("lp: sparse constraint has %d indices but %d coefficients", len(idx), len(coeffs))
	}
	if err := checkRow(coeffs, rel, rhs); err != nil {
		return 0, err
	}
	for _, j := range idx {
		if j < 0 || j >= p.nvars {
			return 0, fmt.Errorf("lp: sparse constraint index %d out of range [0,%d)", j, p.nvars)
		}
	}
	ind := make([]int, len(idx))
	val := make([]float64, len(idx))
	copy(ind, idx)
	copy(val, coeffs)
	sortRowEntries(ind, val)
	// Merge duplicates and drop exact zeros in place.
	w := 0
	for k := range ind {
		if w > 0 && ind[w-1] == ind[k] {
			val[w-1] += val[k]
			continue
		}
		ind[w], val[w] = ind[k], val[k]
		w++
	}
	ind, val = ind[:w], val[:w]
	w = 0
	for k := range ind {
		if val[k] != 0 {
			ind[w], val[w] = ind[k], val[k]
			w++
		}
	}
	return p.appendRow(conRow{ind: ind[:w], val: val[:w], rel: rel, rhs: rhs}), nil
}

// numSlacks counts the inequality rows, each of which carries one slack
// variable in the engine's internal layout.
func (p *Problem) numSlacks() int {
	k := 0
	for _, r := range p.rows {
		if r.rel != EQ {
			k++
		}
	}
	return k
}

func (p *Problem) appendRow(r conRow) int {
	p.rows = append(p.rows, r)
	p.nnz += len(r.ind)
	p.rev++
	return len(p.rows) - 1
}

// checkRow validates a constraint's relation, coefficients, and rhs.
func checkRow(coeffs []float64, rel Relation, rhs float64) error {
	switch rel {
	case LE, GE, EQ:
	default:
		return fmt.Errorf("lp: invalid relation %v", rel)
	}
	for k, v := range coeffs {
		if !isFinite(v) {
			return fmt.Errorf("lp: constraint coefficient %d is %g", k, v)
		}
	}
	if !isFinite(rhs) {
		return fmt.Errorf("lp: constraint right-hand side is %g", rhs)
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func isNegInf(v float64) bool { return math.IsInf(v, -1) }
func isPosInf(v float64) bool { return math.IsInf(v, 1) }

// sortRowEntries sorts parallel index/value slices by index.
func sortRowEntries(ind []int, val []float64) {
	sort.Sort(&rowSorter{ind: ind, val: val})
}

type rowSorter struct {
	ind []int
	val []float64
}

func (s *rowSorter) Len() int           { return len(s.ind) }
func (s *rowSorter) Less(i, j int) bool { return s.ind[i] < s.ind[j] }
func (s *rowSorter) Swap(i, j int) {
	s.ind[i], s.ind[j] = s.ind[j], s.ind[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// Solution is the result of a successful Solve call.
type Solution struct {
	// Status reports whether the problem was solved to optimality, proven
	// infeasible, or proven unbounded.
	Status Status
	// X is the optimal primal point (valid only when Status == Optimal).
	X []float64
	// Objective is the optimal objective in the user's sense (maximized
	// objectives are reported as maximized).
	Objective float64
	// Dual holds one dual price per constraint row: the marginal change of
	// the minimized objective per unit increase of the row's RHS.
	Dual []float64
	// ReducedCost holds the reduced cost of each structural variable under
	// the minimization form.
	ReducedCost []float64
	// Iterations is the total simplex pivot count across both phases. When
	// a warm start was attempted and fell back, the attempt's pivots are
	// included, so the count reflects work done, not just the final path.
	// Finer-grained pivot accounting (phase-I share, degenerate pivots,
	// bound flips) is reported through Options.Metrics rather than here,
	// keeping the per-solve allocation in the same size class as the
	// uninstrumented solver.
	Iterations int
	// Warm reports that the solution was produced by the warm-started dual
	// simplex path rather than a cold two-phase solve: a certified optimum,
	// or an Infeasible verdict whose dual ray passed the Farkas check.
	Warm bool
	// Sparse reports which kernel factored the basis: true for the sparse
	// LU, false for the dense one.
	Sparse bool
	// Basis is a snapshot of the optimal basis, captured only when
	// Options.CaptureBasis is set and Status == Optimal. It can seed a
	// later solve of the same problem shape via Options.WarmBasis.
	Basis *Basis
}

// Options tune the simplex.
type Options struct {
	// Metrics, when non-nil, receives lp_* solve/pivot counters and the
	// lp_pivots histogram. A nil registry costs one branch per solve.
	Metrics *telemetry.Registry
	// WarmBasis, when non-nil, seeds the solve with a basis captured from
	// an earlier solve of the same problem shape (bounds and objective may
	// differ). If the basis is still dual-feasible the solver skips phase I
	// and restores primal feasibility with bound-flipping dual pivots; in
	// every case where the warm path cannot certify a result it falls back
	// to the cold two-phase solve, so results never depend on the hint.
	// The warm basis seeds the initial LU factorization.
	WarmBasis *Basis
	// CaptureBasis records the optimal basis in Solution.Basis and
	// certifies the engine's final state, retained on the Workspace, for
	// this problem, so the next warm solve of it on the same workspace can
	// reuse the LU factorization and eta file instead of rebuilding.
	// Callers ending a capture-enabled sequence on a workspace they keep
	// should call Workspace.Reset.
	CaptureBasis bool
	// Span, when non-nil, parents an "lp.solve" trace span per solve,
	// carrying the kernel choice (sparse=true/false), status, and pivot
	// count. A nil Span emits nothing.
	Span *telemetry.Span
	// Flight, when non-nil, records one FlightLP event per solve (kernel,
	// warm/cold, pivots, status, duration). Recording is observational
	// only and never alters the solve.
	Flight *telemetry.Flight
	// Ctx, when non-nil, is checked once at solve entry; a canceled or
	// expired context makes SolveWith return the context's error (wrapped,
	// so errors.Is(err, context.Canceled / context.DeadlineExceeded)
	// works) without touching the problem. Individual solves are short —
	// per-node/per-round granularity lives in the milp and core callers —
	// so there is no mid-pivot polling.
	Ctx context.Context
	// Workspace supplies (and between solves retains) the engine's working
	// storage, so steady-state re-solves touch the allocator only on
	// problem-size growth. The returned Solution's vectors then alias the
	// workspace and are valid only until its next solve. When nil, the
	// solve borrows a workspace from the package pool for the call and
	// returns fresh copies. Results are bit-identical either way. A
	// workspace must not be used by two goroutines at once.
	Workspace *Workspace

	// maxIter caps total pivots across both phases (default 50000), and
	// tol is the numeric tolerance for pricing and feasibility (default
	// 1e-9). kernel pins the basis factorization kernel; its zero value
	// lets the size and density rule pick (see useSparseKernel). Only this
	// package's tests set them.
	maxIter int
	tol     float64
	kernel  kernel
}

func (o Options) withDefaults() Options {
	if o.maxIter <= 0 {
		o.maxIter = 50000
	}
	if o.tol <= 0 {
		o.tol = 1e-9
	}
	return o
}

// Kernel-selection rule: the sparse LU wins when the basis is large and
// sparse enough that Markowitz elimination and sparse triangular solves
// beat dense ones. The KKT systems of case9/30/57 (30–42 rows) stay on the
// dense LU, where the sparse bookkeeping costs more than it saves; those
// of case118 (~180 rows, ~4% dense) take the sparse one. 64 rows splits
// the two regimes with margin on both sides.
const (
	sparseMinRows    = 64
	sparseMaxDensity = 0.3
)

// kernel names the basis factorization kernel a solve runs on.
type kernel uint8

const (
	kernelAuto kernel = iota // pick by useSparseKernel
	kernelDense
	kernelSparse
)

// useSparseKernel decides which kernel factors p's bases.
func useSparseKernel(p *Problem, opts Options) bool {
	switch opts.kernel {
	case kernelDense:
		return false
	case kernelSparse:
		return true
	}
	return len(p.rows) >= sparseMinRows && p.Density() <= sparseMaxDensity
}

// solveStats aggregates one solve's counter deltas.
type solveStats struct {
	iters, phase1, degen, flips, dualPivs int
	warmTried, warmUsed                   bool
	ftran, btran, etaApps, refactors      int
	farkasCertified, farkasRejected       int
}

// Solve solves the problem with default options.
func Solve(p *Problem) (*Solution, error) {
	return SolveWith(p, Options{})
}

// SolveWith solves the problem with explicit options.
func SolveWith(p *Problem, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("lp: solve aborted: %w", err)
		}
	}
	sparseEng := useSparseKernel(p, opts)
	opts.kernel = kernelDense
	if sparseEng {
		opts.kernel = kernelSparse
	}
	span := telemetry.StartSpan(nil, opts.Span, "lp.solve")
	span.SetAttr("sparse", sparseEng)
	if opts.Metrics != nil {
		// High-water problem shape: the largest system seen and the densest
		// system seen (SetMax, so the gauges are order-independent).
		opts.Metrics.Gauge("lp_problem_nnz").SetMax(float64(p.NNZ()))
		opts.Metrics.Gauge("lp_problem_density").SetMax(p.Density())
	}

	borrowed := opts.Workspace == nil
	if borrowed {
		opts.Workspace = GetWorkspace()
	}
	// Wall-clock is only sampled when someone will consume it, keeping
	// the telemetry-off path free of clock calls.
	timed := opts.Metrics != nil || opts.Flight != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var (
		sol   *Solution
		err   error
		stats solveStats
	)
	sol, err = solve(p, opts, &stats)
	if sol != nil {
		sol.Iterations = stats.iters
		sol.Warm = stats.warmUsed
		sol.Sparse = sparseEng
	}
	var dur time.Duration
	if timed {
		dur = time.Since(t0)
	}
	emitSolveMetrics(opts.Metrics, sol, err, &stats, sparseEng, dur)
	if fl := opts.Flight; fl != nil {
		ev := telemetry.FlightEvent{
			Kind:   telemetry.FlightLP,
			Sparse: sparseEng,
			Warm:   stats.warmUsed,
			Pivots: stats.iters,
			DurUS:  dur.Microseconds(),
		}
		switch {
		case err != nil:
			ev.Label = "error"
		case sol != nil:
			ev.Label = sol.Status.String()
			ev.Bound = sol.Objective
		}
		fl.Record(ev)
	}
	if span != nil {
		if sol != nil {
			span.SetAttr("status", sol.Status.String())
			span.SetAttr("pivots", stats.iters)
			span.SetAttr("warm", stats.warmUsed)
		}
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}
	if borrowed {
		sol = sol.detach()
		PutWorkspace(opts.Workspace)
	}
	return sol, err
}

// emitSolveMetrics publishes one solve's counter deltas.
func emitSolveMetrics(m *telemetry.Registry, sol *Solution, err error, st *solveStats, sparseEng bool, dur time.Duration) {
	if m == nil {
		return
	}
	m.Counter("lp_solves_total").Inc()
	if sparseEng {
		m.Counter("lp_sparse_solves_total").Inc()
	} else {
		m.Counter("lp_dense_solves_total").Inc()
	}
	m.Histogram("lp_solve_seconds", telemetry.SecondsBuckets).Observe(dur.Seconds())
	m.Counter("lp_pivots_total").Add(int64(st.iters))
	m.Counter("lp_phase1_pivots_total").Add(int64(st.phase1))
	m.Counter("lp_degenerate_pivots_total").Add(int64(st.degen))
	m.Counter("lp_bound_flips_total").Add(int64(st.flips))
	m.Counter("lp_dual_pivots_total").Add(int64(st.dualPivs))
	m.Counter("lp_ftran_total").Add(int64(st.ftran))
	m.Counter("lp_btran_total").Add(int64(st.btran))
	m.Counter("lp_eta_length").Add(int64(st.etaApps))
	m.Counter("lp_refactorizations_total").Add(int64(st.refactors))
	m.Counter("lp_farkas_certified_total").Add(int64(st.farkasCertified))
	m.Counter("lp_farkas_rejected_total").Add(int64(st.farkasRejected))
	if st.warmTried {
		if st.warmUsed {
			m.Counter("lp_warm_solves_total").Inc()
		} else {
			m.Counter("lp_warm_fallbacks_total").Inc()
		}
	}
	m.Histogram("lp_pivots", telemetry.IterBuckets).Observe(float64(st.iters))
	switch {
	case err != nil:
		m.Counter("lp_errors_total").Inc()
	case sol.Status == Infeasible:
		m.Counter("lp_infeasible_total").Inc()
	case sol.Status == Unbounded:
		m.Counter("lp_unbounded_total").Inc()
	}
}
