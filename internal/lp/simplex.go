package lp

import (
	"fmt"
	"math"
)

// varStatus tracks where a variable currently sits.
type varStatus int8

const (
	atLower varStatus = iota + 1
	atUpper
	isFree // nonbasic free variable pinned at value 0
	basic
)

// simplex holds the working state of a bounded-variable two-phase tableau
// simplex. Variable layout: [0,n) structural, [n, n+nslack) slacks/surplus,
// [n+nslack, total) one artificial per row.
type simplex struct {
	opts Options

	m, n    int // constraint rows, structural variables
	nslack  int
	total   int // n + nslack + m
	artOff  int // index of first artificial
	tab     [][]float64
	rhsFlip []bool    // row sign was flipped during setup
	lower   []float64 // bounds for every variable, incl. slack/artificial
	upper   []float64
	costII  []float64 // phase-II cost over all variables (minimization)
	z       []float64 // reduced-cost row for the current phase
	basis   []int     // basis[i] = variable basic in row i
	status  []varStatus
	xB      []float64 // value of the basic variable in each row
	xN      []float64 // value of every variable (kept current for nonbasic)
	rhs     []float64 // B⁻¹b, maintained through every pivot for warm starts
	iters   int
	bland   bool
	stall   int

	maximize bool
	userC    []float64

	// buf backs the tableau rows and every float working vector; take
	// carves zeroed slices out of it from off onward. The engine (and so
	// buf) is retained on the workspace between solves.
	buf []float64
	off int

	// Pivot-accounting counters, kept after the hot fields so the layout
	// of the per-pivot working set matches the uninstrumented solver.
	phase1Iters int
	degenPivots int
	boundFlips  int
	dualPivots  int

	// cacheRev records Problem.rev at the moment the finished solver was
	// retained as a certified warm-start tableau (Workspace.retainTableau).
	cacheRev int
}

// take carves a zeroed length-n slice out of buf. Retained storage is dirty
// from earlier solves, so callers rely on take's clearing the slice.
func (s *simplex) take(n int) []float64 {
	t := s.buf[s.off : s.off+n]
	s.off += n
	for i := range t {
		t[i] = 0
	}
	return t
}

// newSimplex builds the cold-start tableau for p in the workspace's dense
// engine storage, reusing whatever arrays the workspace retained.
func newSimplex(p *Problem, opts Options) *simplex {
	m, n, nslack := len(p.rows), p.nvars, p.numSlacks()
	s := opts.Workspace.detachTableau()
	old := *s
	total := n + nslack + m
	*s = simplex{
		opts:     opts,
		m:        m,
		n:        n,
		nslack:   nslack,
		total:    total,
		artOff:   n + nslack,
		maximize: p.maximize,
		userC:    p.c,
		// One buffer covers the tableau (m×total), the six per-variable
		// working vectors (lower, upper, costII, z, costI, xN), xB, and
		// the maintained B⁻¹b column.
		buf:     growFloat(old.buf, (m+6)*total+2*m),
		tab:     old.tab[:0],
		rhsFlip: growBool(old.rhsFlip, m),
		basis:   growInt(old.basis, m),
		status:  old.status[:0],
	}
	if cap(s.status) < total {
		s.status = make([]varStatus, total)
	}
	s.status = s.status[:total]
	s.lower = s.take(s.total)
	s.upper = s.take(s.total)
	copy(s.lower, p.lower)
	copy(s.upper, p.upper)
	for j := n; j < s.artOff; j++ { // slacks: [0, +Inf)
		s.upper[j] = math.Inf(1)
	}
	for j := s.artOff; j < s.total; j++ { // artificials: [0, +Inf) in phase I
		s.upper[j] = math.Inf(1)
	}

	s.costII = s.take(s.total)
	s.z = s.take(s.total)
	sign := 1.0
	if p.maximize {
		sign = -1
	}
	for j := 0; j < n; j++ {
		s.costII[j] = sign * p.c[j]
	}

	// Build the tableau: structural coefficients, slack column per
	// inequality, artificial identity block.
	s.xB = s.take(m)
	s.rhs = s.take(m)
	s.xN = s.take(s.total)

	// Initial nonbasic placement: nearest finite bound, free at 0.
	for j := 0; j < s.total; j++ {
		switch {
		case !math.IsInf(s.lower[j], -1):
			s.status[j] = atLower
			s.xN[j] = s.lower[j]
		case !math.IsInf(s.upper[j], 1):
			s.status[j] = atUpper
			s.xN[j] = s.upper[j]
		default:
			s.status[j] = isFree
			s.xN[j] = 0
		}
	}

	slackAt := n
	for i, row := range p.rows {
		t := s.take(s.total)
		for k, j := range row.ind {
			t[j] = row.val[k]
		}
		switch row.rel {
		case LE:
			t[slackAt] = 1
			slackAt++
		case GE:
			t[slackAt] = -1
			slackAt++
		}
		// Residual the artificial must absorb given initial nonbasic
		// values.
		resid := row.rhs
		for j := 0; j < s.artOff; j++ {
			if t[j] != 0 {
				resid -= t[j] * s.xN[j]
			}
		}
		s.rhsFlip[i] = resid < 0
		if s.rhsFlip[i] {
			for j := range t {
				t[j] = -t[j]
			}
			resid = -resid
		}
		art := s.artOff + i
		t[art] = 1
		s.tab = append(s.tab, t)
		s.basis[i] = art
		s.status[art] = basic
		s.xB[i] = resid
		s.xN[art] = resid
		s.rhs[i] = row.rhs
		if s.rhsFlip[i] {
			s.rhs[i] = -row.rhs
		}
	}
	return s
}

// run executes both phases and assembles the solution.
func (s *simplex) run() (*Solution, error) {
	// Phase I: minimize the sum of artificials.
	costI := s.take(s.total)
	for j := s.artOff; j < s.total; j++ {
		costI[j] = 1
	}
	st, err := s.optimize(costI)
	if err != nil {
		return nil, err
	}
	if st == Unbounded && s.phaseObjective(costI) > 1e-7 {
		// The phase-I objective is bounded below by zero, so a ray can
		// only be a numerical artifact; with residual infeasibility we
		// cannot certify either way.
		return nil, fmt.Errorf("lp: numerical failure: phase I reported unbounded at infeasibility %g",
			s.phaseObjective(costI))
	}
	s.phase1Iters = s.iters
	if s.phaseObjective(costI) > 1e-7 {
		return &Solution{Status: Infeasible, Iterations: s.iters}, nil
	}
	// Pin artificials to zero for phase II.
	for j := s.artOff; j < s.total; j++ {
		s.upper[j] = 0
		s.lower[j] = 0
		if s.status[j] != basic {
			s.status[j] = atLower
			s.xN[j] = 0
		}
	}

	st, err = s.optimize(s.costII)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Iterations: s.iters}, nil
	}
	return s.assemble(), nil
}

// phaseObjective evaluates cᵀx at the current point.
func (s *simplex) phaseObjective(cost []float64) float64 {
	var obj float64
	for j := 0; j < s.total; j++ {
		if cost[j] != 0 {
			obj += cost[j] * s.xN[j]
		}
	}
	return obj
}

// initReducedCosts fills the z row for the given phase cost: z_j = c_j − yᵀA_j.
// The z vector lives in the engine's buffer and is fully overwritten here.
func (s *simplex) initReducedCosts(cost []float64) {
	copy(s.z, cost)
	for i := 0; i < s.m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.tab[i]
		for j := 0; j < s.total; j++ {
			if row[j] != 0 {
				s.z[j] -= cb * row[j]
			}
		}
	}
	// Reduced cost of basic variables is exactly zero by construction.
	for i := 0; i < s.m; i++ {
		s.z[s.basis[i]] = 0
	}
}

// optimize runs the simplex loop for one phase.
func (s *simplex) optimize(cost []float64) (Status, error) {
	s.initReducedCosts(cost)
	tol := s.opts.Tol
	lastObj := math.Inf(1)
	sinceRefresh := 0
	for {
		if s.iters >= s.opts.MaxIter {
			return 0, fmt.Errorf("%w (after %d pivots)", ErrIterLimit, s.iters)
		}
		// The z row is updated incrementally on every pivot; rebuild it
		// from scratch periodically so drift cannot mislead pricing.
		if sinceRefresh >= 200 {
			s.initReducedCosts(cost)
			sinceRefresh = 0
		}
		j, dir := s.price(tol)
		if j < 0 {
			return Optimal, nil
		}
		unbounded, err := s.step(j, dir, tol)
		if err != nil {
			return 0, err
		}
		if unbounded {
			// An unbounded ray must survive exact reduced costs; a
			// stale z row can fabricate one on degenerate problems.
			if sinceRefresh > 0 {
				s.initReducedCosts(cost)
				sinceRefresh = 0
				continue
			}
			return Unbounded, nil
		}
		s.iters++
		sinceRefresh++
		// Cycling guard: if the objective stops improving for a long
		// stretch of degenerate pivots, switch to Bland's rule, which
		// guarantees termination.
		obj := s.phaseObjective(cost)
		if obj < lastObj-tol {
			lastObj = obj
			s.stall = 0
		} else {
			s.stall++
			if s.stall > s.m+s.total {
				s.bland = true
			}
		}
	}
}

// price selects an entering variable and movement direction (+1 increase,
// −1 decrease), or (-1, 0) at optimality.
func (s *simplex) price(tol float64) (enter int, dir float64) {
	bestJ, bestScore, bestDir := -1, tol, 0.0
	for j := 0; j < s.total; j++ {
		st := s.status[j]
		if st == basic {
			continue
		}
		if s.upper[j]-s.lower[j] < tol && st != isFree {
			continue // fixed variable can never move
		}
		zj := s.z[j]
		var score, d float64
		switch st {
		case atLower:
			if zj < -tol {
				score, d = -zj, 1
			}
		case atUpper:
			if zj > tol {
				score, d = zj, -1
			}
		case isFree:
			if zj < -tol {
				score, d = -zj, 1
			} else if zj > tol {
				score, d = zj, -1
			}
		}
		if d == 0 {
			continue
		}
		if s.bland {
			return j, d
		}
		if score > bestScore {
			bestJ, bestScore, bestDir = j, score, d
		}
	}
	if bestJ < 0 {
		return -1, 0
	}
	return bestJ, bestDir
}

// step performs the ratio test and either flips a bound, pivots, or reports
// unboundedness.
func (s *simplex) step(j int, dir, tol float64) (unbounded bool, err error) {
	// Maximum movement allowed by the entering variable's own span.
	span := s.upper[j] - s.lower[j]
	tMax := math.Inf(1)
	if !math.IsInf(span, 1) {
		tMax = span
	}
	leaveRow := -1
	leaveAtUpper := false
	for i := 0; i < s.m; i++ {
		alpha := s.tab[i][j]
		if alpha == 0 {
			continue
		}
		delta := -dir * alpha // rate of change of the basic variable
		b := s.basis[i]
		var t float64
		var hitsUpper bool
		switch {
		case delta > tol:
			ub := s.upper[b]
			if math.IsInf(ub, 1) {
				continue
			}
			t = (ub - s.xB[i]) / delta
			hitsUpper = true
		case delta < -tol:
			lb := s.lower[b]
			if math.IsInf(lb, -1) {
				continue
			}
			t = (lb - s.xB[i]) / delta
			hitsUpper = false
		default:
			continue
		}
		if t < -tol {
			t = 0 // numerical slip outside bounds: treat as degenerate
		}
		if t < tMax-tol || (t < tMax+tol && leaveRow < 0) {
			if t < 0 {
				t = 0
			}
			tMax = t
			leaveRow = i
			leaveAtUpper = hitsUpper
		}
	}
	if math.IsInf(tMax, 1) {
		return true, nil
	}
	if leaveRow < 0 {
		// Bound flip: the entering variable traverses its whole span.
		s.boundFlips++
		for i := 0; i < s.m; i++ {
			alpha := s.tab[i][j]
			if alpha == 0 {
				continue
			}
			s.xB[i] -= dir * alpha * tMax
			s.xN[s.basis[i]] = s.xB[i]
		}
		if dir > 0 {
			s.status[j] = atUpper
			s.xN[j] = s.upper[j]
		} else {
			s.status[j] = atLower
			s.xN[j] = s.lower[j]
		}
		return false, nil
	}

	// Pivot: variable j enters the basis in row leaveRow.
	if tMax <= tol {
		s.degenPivots++
	}
	enterVal := s.xN[j] + dir*tMax
	for i := 0; i < s.m; i++ {
		alpha := s.tab[i][j]
		if alpha == 0 {
			continue
		}
		s.xB[i] -= dir * alpha * tMax
		s.xN[s.basis[i]] = s.xB[i]
	}
	leaving := s.basis[leaveRow]
	if leaveAtUpper {
		s.status[leaving] = atUpper
		s.xN[leaving] = s.upper[leaving]
	} else {
		s.status[leaving] = atLower
		s.xN[leaving] = s.lower[leaving]
	}

	piv := s.tab[leaveRow][j]
	if math.Abs(piv) < 1e-11 {
		return false, fmt.Errorf("lp: numerically zero pivot %g at row %d col %d", piv, leaveRow, j)
	}
	prow := s.tab[leaveRow]
	inv := 1 / piv
	for k := range prow {
		prow[k] *= inv
	}
	s.rhs[leaveRow] *= inv
	for i := 0; i < s.m; i++ {
		if i == leaveRow {
			continue
		}
		f := s.tab[i][j]
		if f == 0 {
			continue
		}
		row := s.tab[i]
		for k := range row {
			row[k] -= f * prow[k]
		}
		row[j] = 0
		s.rhs[i] -= f * s.rhs[leaveRow]
	}
	zf := s.z[j]
	if zf != 0 {
		for k := range s.z {
			s.z[k] -= zf * prow[k]
		}
		s.z[j] = 0
	}
	s.basis[leaveRow] = j
	s.status[j] = basic
	s.xB[leaveRow] = enterVal
	s.xN[j] = enterVal
	return false, nil
}

// assemble builds the user-facing solution after a phase-II optimum in the
// workspace's solution storage.
func (s *simplex) assemble() *Solution {
	sol := s.opts.Workspace.solution(s.n, s.m)
	x, dual, rc := sol.X, sol.Dual, sol.ReducedCost
	copy(x, s.xN[:s.n])
	var obj float64
	for j := 0; j < s.n; j++ {
		obj += s.userC[j] * x[j]
	}
	sign := 1.0
	if s.maximize {
		sign = -1
	}
	for i := 0; i < s.m; i++ {
		// The artificial column of row i carries B⁻¹ e_i, so the dual
		// price is −z over that column (artificials have zero phase-II
		// cost). Undo the setup-time row sign flip.
		y := -s.z[s.artOff+i]
		if s.rhsFlip[i] {
			y = -y
		}
		dual[i] = sign * y
	}
	for j := 0; j < s.n; j++ {
		rc[j] = sign * s.z[j]
	}
	sol.Objective = obj
	sol.Iterations = s.iters
	return sol
}
