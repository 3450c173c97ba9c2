package lp

import (
	"fmt"
	"math"
)

// This file is the differential-testing oracle for the revised simplex: a
// cold two-phase bounded-variable simplex on an explicit dense tableau. It
// shares no basis factorization, eta file, warm path or workspace with the
// engine under test — every pivot rewrites the whole m×total tableau — and
// makes the same pricing (Dantzig, Bland after a stall) and ratio-test
// decisions the revised engine mirrors, so on small well-conditioned
// problems the two reach the same verdict and objective. It is no oracle
// for badly scaled ones: on the big-M KKT relaxations (M = 1e5 next to
// unit coefficients) its in-place pivots drift into optima that violate a
// row by up to 7e4 and into false Infeasible verdicts (see
// TestRealKKTBigMKernels).

// tableau holds the working state of one oracle solve. Variable layout:
// [0,n) structural, [n, n+nslack) slacks/surplus, [n+nslack, total) one
// artificial per row.
type tableau struct {
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
	iters   int
	phase1  int
	bland   bool
	stall   int

	maximize bool
	userC    []float64
}

// solveTableau cold-solves p on the oracle tableau. Only maxIter and tol of
// opts are read.
func solveTableau(p *Problem, opts Options) (*Solution, error) {
	return newTableau(p, opts.withDefaults()).run()
}

// newTableau builds the cold-start tableau for p: artificial basis, every
// nonbasic variable on its nearest finite bound, each row's sign flipped
// where its artificial would otherwise start negative.
func newTableau(p *Problem, opts Options) *tableau {
	m, n, nslack := len(p.rows), p.nvars, p.numSlacks()
	total := n + nslack + m
	s := &tableau{
		opts:     opts,
		m:        m,
		n:        n,
		nslack:   nslack,
		total:    total,
		artOff:   n + nslack,
		maximize: p.maximize,
		userC:    p.c,
		rhsFlip:  make([]bool, m),
		lower:    make([]float64, total),
		upper:    make([]float64, total),
		costII:   make([]float64, total),
		z:        make([]float64, total),
		basis:    make([]int, m),
		status:   make([]varStatus, total),
		xB:       make([]float64, m),
		xN:       make([]float64, total),
	}
	copy(s.lower, p.lower)
	copy(s.upper, p.upper)
	for j := n; j < total; j++ { // slacks and artificials: [0, +Inf) in phase I
		s.upper[j] = math.Inf(1)
	}
	sign := 1.0
	if p.maximize {
		sign = -1
	}
	for j := 0; j < n; j++ {
		s.costII[j] = sign * p.c[j]
	}
	for j := 0; j < total; j++ {
		switch {
		case !math.IsInf(s.lower[j], -1):
			s.status[j] = atLower
			s.xN[j] = s.lower[j]
		case !math.IsInf(s.upper[j], 1):
			s.status[j] = atUpper
			s.xN[j] = s.upper[j]
		default:
			s.status[j] = isFree
		}
	}
	slackAt := n
	for i, row := range p.rows {
		t := make([]float64, total)
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
	}
	return s
}

// run executes both phases and assembles the solution.
func (s *tableau) run() (*Solution, error) {
	costI := make([]float64, s.total)
	for j := s.artOff; j < s.total; j++ {
		costI[j] = 1
	}
	st, err := s.optimize(costI)
	if err != nil {
		return nil, err
	}
	if st == Unbounded && s.phaseObjective(costI) > 1e-7 {
		return nil, fmt.Errorf("lp: numerical failure: phase I reported unbounded at infeasibility %g",
			s.phaseObjective(costI))
	}
	s.phase1 = s.iters
	if s.phaseObjective(costI) > 1e-7 {
		return &Solution{Status: Infeasible, Iterations: s.iters}, nil
	}
	for j := s.artOff; j < s.total; j++ {
		s.upper[j], s.lower[j] = 0, 0
		if s.status[j] != basic {
			s.status[j], s.xN[j] = atLower, 0
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
func (s *tableau) phaseObjective(cost []float64) float64 {
	var obj float64
	for j := 0; j < s.total; j++ {
		if cost[j] != 0 {
			obj += cost[j] * s.xN[j]
		}
	}
	return obj
}

// initReducedCosts fills the z row for the given phase cost: z_j = c_j − yᵀA_j.
func (s *tableau) initReducedCosts(cost []float64) {
	copy(s.z, cost)
	for i := 0; i < s.m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		for j, a := range s.tab[i] {
			if a != 0 {
				s.z[j] -= cb * a
			}
		}
	}
	for _, v := range s.basis {
		s.z[v] = 0
	}
}

// optimize runs the simplex loop for one phase, rebuilding the z row every
// 200 pivots and before certifying a ray, and switching to Bland's rule
// after a long stall.
func (s *tableau) optimize(cost []float64) (Status, error) {
	s.initReducedCosts(cost)
	tol := s.opts.tol
	lastObj := math.Inf(1)
	sinceRefresh := 0
	for {
		if s.iters >= s.opts.maxIter {
			return 0, fmt.Errorf("%w (after %d pivots)", ErrIterLimit, s.iters)
		}
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
			if sinceRefresh > 0 {
				s.initReducedCosts(cost)
				sinceRefresh = 0
				continue
			}
			return Unbounded, nil
		}
		s.iters++
		sinceRefresh++
		if obj := s.phaseObjective(cost); obj < lastObj-tol {
			lastObj = obj
			s.stall = 0
		} else if s.stall++; s.stall > s.m+s.total {
			s.bland = true
		}
	}
}

// price selects an entering variable and movement direction (+1 increase,
// −1 decrease), or (-1, 0) at optimality.
func (s *tableau) price(tol float64) (enter int, dir float64) {
	bestJ, bestScore, bestDir := -1, tol, 0.0
	for j := 0; j < s.total; j++ {
		st := s.status[j]
		if st == basic || s.upper[j]-s.lower[j] < tol && st != isFree {
			continue
		}
		zj := s.z[j]
		var score, d float64
		switch {
		case st != atUpper && zj < -tol:
			score, d = -zj, 1
		case st != atLower && zj > tol:
			score, d = zj, -1
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
	return bestJ, bestDir
}

// step performs the ratio test and either flips a bound, pivots, or reports
// unboundedness.
func (s *tableau) step(j int, dir, tol float64) (unbounded bool, err error) {
	tMax := s.upper[j] - s.lower[j]
	leaveRow := -1
	leaveAtUpper := false
	for i := 0; i < s.m; i++ {
		delta := -dir * s.tab[i][j] // rate of change of the basic variable
		b := s.basis[i]
		var t float64
		var hitsUpper bool
		switch {
		case delta > tol && !math.IsInf(s.upper[b], 1):
			t, hitsUpper = (s.upper[b]-s.xB[i])/delta, true
		case delta < -tol && !math.IsInf(s.lower[b], -1):
			t = (s.lower[b] - s.xB[i]) / delta
		default:
			continue
		}
		if t < -tol {
			t = 0 // numerical slip outside bounds: treat as degenerate
		}
		if t < tMax-tol || (t < tMax+tol && leaveRow < 0) {
			tMax, leaveRow, leaveAtUpper = max(t, 0), i, hitsUpper
		}
	}
	if math.IsInf(tMax, 1) {
		return true, nil
	}
	for i := 0; i < s.m; i++ {
		if alpha := s.tab[i][j]; alpha != 0 {
			s.xB[i] -= dir * alpha * tMax
			s.xN[s.basis[i]] = s.xB[i]
		}
	}
	if leaveRow < 0 {
		// Bound flip: the entering variable traverses its whole span.
		if dir > 0 {
			s.status[j], s.xN[j] = atUpper, s.upper[j]
		} else {
			s.status[j], s.xN[j] = atLower, s.lower[j]
		}
		return false, nil
	}
	enterVal := s.xN[j] + dir*tMax
	leaving := s.basis[leaveRow]
	if leaveAtUpper {
		s.status[leaving], s.xN[leaving] = atUpper, s.upper[leaving]
	} else {
		s.status[leaving], s.xN[leaving] = atLower, s.lower[leaving]
	}
	prow := s.tab[leaveRow]
	piv := prow[j]
	if math.Abs(piv) < 1e-11 {
		return false, fmt.Errorf("lp: numerically zero pivot %g at row %d col %d", piv, leaveRow, j)
	}
	inv := 1 / piv
	for k := range prow {
		prow[k] *= inv
	}
	for i, row := range s.tab {
		if f := row[j]; i != leaveRow && f != 0 {
			for k := range row {
				row[k] -= f * prow[k]
			}
			row[j] = 0
		}
	}
	if zf := s.z[j]; zf != 0 {
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

// assemble builds the user-facing solution after a phase-II optimum. The
// artificial column of row i carries B⁻¹e_i, so the dual price is −z over
// that column, with the setup-time row sign flip undone.
func (s *tableau) assemble() *Solution {
	sign := 1.0
	if s.maximize {
		sign = -1
	}
	sol := &Solution{
		Status:      Optimal,
		X:           append([]float64(nil), s.xN[:s.n]...),
		Dual:        make([]float64, s.m),
		ReducedCost: make([]float64, s.n),
		Iterations:  s.iters,
	}
	for j := 0; j < s.n; j++ {
		sol.Objective += s.userC[j] * sol.X[j]
		sol.ReducedCost[j] = sign * s.z[j]
	}
	for i := 0; i < s.m; i++ {
		y := -s.z[s.artOff+i]
		if s.rhsFlip[i] {
			y = -y
		}
		sol.Dual[i] = sign * y
	}
	return sol
}
