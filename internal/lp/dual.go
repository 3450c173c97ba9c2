package lp

import (
	"math"
	"sort"
)

// This file implements the warm-started solve path: given a Basis from an
// earlier solve of the same problem shape, rebuild the tableau in that basis
// (reusing the previous solve's final tableau when the workspace retained a
// certified one), and — because bound changes cannot disturb dual
// feasibility — restore primal feasibility with bound-flipping dual simplex
// pivots instead of a full phase-I/phase-II cold solve. Whenever any step of
// the warm path cannot be certified (singular refactorization,
// dual-infeasible basis with an infeasible primal start, suspected
// infeasibility or unboundedness, numerical trouble), the caller falls back
// to the unchanged cold two-phase primal solver, so every final verdict is
// produced by a certified path.

// refactorPivotTol is the minimum acceptable pivot magnitude (after partial
// pivoting across candidate rows) when driving a warm basis into the
// tableau; anything smaller means the basis is numerically singular for this
// problem and the warm path gives up.
const refactorPivotTol = 1e-8

func isNegInf(v float64) bool { return math.IsInf(v, -1) }
func isPosInf(v float64) bool { return math.IsInf(v, 1) }

// trySolveWarm attempts a warm-started solve from basis b. A nil Solution
// means the warm path could not certify a result and the caller must cold
// solve; the returned simplex (when non-nil) carries the pivot accounting of
// the attempt either way.
func trySolveWarm(p *Problem, opts Options, b *Basis) (*simplex, *Solution) {
	m, n, nslack := len(p.rows), p.nvars, p.numSlacks()
	if !b.matches(n, m, nslack) {
		return nil, nil
	}
	s := opts.Workspace.takeTableau(p, m, n, nslack)
	if s != nil {
		s.opts = opts
		s.maximize, s.userC = p.maximize, p.c
	} else {
		s = newSimplex(p, opts)
	}
	if !s.refactorTo(b) {
		return s, nil
	}
	s.warmRestore(p, b)
	if s.warmDualFeasible() {
		if !s.dualSimplex() {
			return s, nil
		}
	} else if !s.warmPrimalFeasible() {
		return s, nil
	}
	// Certification pass: exact reduced costs, primal pivots if the basis is
	// not yet optimal. This is the same phase-II loop (and the same
	// optimality test) the cold solver finishes with.
	st, err := s.optimize(s.costII)
	if err != nil || st != Optimal {
		// Unbounded verdicts (and any numerical failure) are re-derived by
		// the cold solver so they carry the same certificate as before.
		return s, nil
	}
	sol := s.assemble()
	sol.Warm = true
	return s, sol
}

// refactorTo drives the target basis into the tableau. Starting from
// whatever basis the tableau is currently in (the artificial identity after
// a fresh build, or the previous solve's final basis when the tableau was
// cached), each wanted-but-nonbasic variable is pivoted into a row whose
// current basic variable is not wanted, choosing the largest pivot across
// candidate rows. The cost is one pivot per basis difference, so re-solves
// in a depth-first branch-and-bound dive are nearly free. Returns false if
// the target basis is rank-deficient or numerically singular here.
func (s *simplex) refactorTo(b *Basis) bool {
	want := make([]bool, s.total)
	cnt := 0
	for j, st := range b.status {
		if st == basic {
			want[j] = true
			cnt++
		}
	}
	if cnt != s.m {
		return false
	}
	inBasis := make([]bool, s.total)
	rowFree := make([]bool, s.m)
	for i, v := range s.basis {
		inBasis[v] = true
		rowFree[i] = !want[v]
	}
	for v := 0; v < s.total; v++ {
		if !want[v] || inBasis[v] {
			continue
		}
		best, bestAbs := -1, refactorPivotTol
		for r := 0; r < s.m; r++ {
			if !rowFree[r] {
				continue
			}
			if a := math.Abs(s.tab[r][v]); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			return false
		}
		s.pivotTableau(best, v)
		rowFree[best] = false
	}
	return true
}

// pivotTableau performs a pure tableau pivot (rows and the B⁻¹b column, no
// value or reduced-cost updates) installing variable j as basic in row r.
func (s *simplex) pivotTableau(r, j int) {
	prow := s.tab[r]
	inv := 1 / prow[j]
	for k := range prow {
		prow[k] *= inv
	}
	s.rhs[r] *= inv
	for i := 0; i < s.m; i++ {
		if i == r {
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
		s.rhs[i] -= f * s.rhs[r]
	}
	s.basis[r] = j
}

// warmRestore rebuilds every per-variable vector for the current problem
// bounds and objective around the already-refactorized tableau: nonbasic
// variables are placed on the bound the warm basis remembers (moved to the
// nearest finite bound when that side is now unbounded), artificials are
// pinned to zero exactly as after a cold phase I, basic values come from the
// maintained B⁻¹b column, and the reduced-cost row is rebuilt exactly.
func (s *simplex) warmRestore(p *Problem, b *Basis) {
	n := s.n
	copy(s.lower[:n], p.lower)
	copy(s.upper[:n], p.upper)
	for j := n; j < s.artOff; j++ { // slacks: [0, +Inf)
		s.lower[j], s.upper[j] = 0, math.Inf(1)
	}
	for j := s.artOff; j < s.total; j++ { // artificials stay pinned
		s.lower[j], s.upper[j] = 0, 0
	}
	sign := 1.0
	if s.maximize {
		sign = -1
	}
	for j := 0; j < s.total; j++ {
		if j < n {
			s.costII[j] = sign * s.userC[j]
		} else {
			s.costII[j] = 0
		}
	}
	for j := 0; j < s.total; j++ {
		st := b.status[j]
		lo, hi := s.lower[j], s.upper[j]
		switch {
		case st == basic:
			// placed below, once values are known
		case st == atUpper && !isPosInf(hi):
			s.status[j], s.xN[j] = atUpper, hi
		case st == isFree && isNegInf(lo) && isPosInf(hi):
			s.status[j], s.xN[j] = isFree, 0
		case !isNegInf(lo):
			s.status[j], s.xN[j] = atLower, lo
		case !isPosInf(hi):
			s.status[j], s.xN[j] = atUpper, hi
		default:
			s.status[j], s.xN[j] = isFree, 0
		}
	}
	// xB = B⁻¹b − Σ (B⁻¹A)_j · x_j over nonbasic variables off zero.
	for i := 0; i < s.m; i++ {
		s.xB[i] = s.rhs[i]
	}
	for j := 0; j < s.total; j++ {
		if b.status[j] == basic || s.xN[j] == 0 {
			continue
		}
		v := s.xN[j]
		for i := 0; i < s.m; i++ {
			if a := s.tab[i][j]; a != 0 {
				s.xB[i] -= a * v
			}
		}
	}
	for i, v := range s.basis {
		s.status[v] = basic
		s.xN[v] = s.xB[i]
	}
	s.iters, s.phase1Iters, s.degenPivots, s.boundFlips, s.dualPivots = 0, 0, 0, 0, 0
	s.bland, s.stall = false, 0
	s.initReducedCosts(s.costII)
}

// warmDualFeasible reports whether every nonbasic variable prices out the
// right way. The threshold scales with the objective magnitude (big-M KKT
// problems carry costs around 1e5) because this is only a routing decision:
// optimality is still certified by the exact phase-II pass afterwards.
func (s *simplex) warmDualFeasible() bool {
	maxC := 0.0
	for _, c := range s.costII {
		if a := math.Abs(c); a > maxC {
			maxC = a
		}
	}
	dtol := s.opts.Tol * (1 + maxC)
	for j := 0; j < s.total; j++ {
		st := s.status[j]
		if st == basic {
			continue
		}
		if st != isFree && s.upper[j]-s.lower[j] < s.opts.Tol {
			continue // fixed variables cannot move in any direction
		}
		zj := s.z[j]
		switch st {
		case atLower:
			if zj < -dtol {
				return false
			}
		case atUpper:
			if zj > dtol {
				return false
			}
		case isFree:
			if zj < -dtol || zj > dtol {
				return false
			}
		}
	}
	return true
}

// warmPrimalFeasible reports whether every basic value sits within its
// bounds, i.e. the warm basis can seed phase II directly.
func (s *simplex) warmPrimalFeasible() bool {
	tol := s.opts.Tol
	for i := 0; i < s.m; i++ {
		v := s.basis[i]
		if s.xB[i] < s.lower[v]-tol || s.xB[i] > s.upper[v]+tol {
			return false
		}
	}
	return true
}

// dualCand is one eligible entering column for a dual pivot.
type dualCand struct {
	j     int
	alpha float64 // tableau entry in the leaving row
	ratio float64 // dual ratio |z_j / alpha|
	span  float64 // distance between the variable's bounds
}

// dualSimplex runs bound-flipping dual pivots until every basic variable is
// back inside its bounds. Dual feasibility of the reduced costs is the loop
// invariant (maintained by the min-ratio rule), so no phase I is needed.
// Returns false when it cannot finish — no eligible entering column (the
// standard dual certificate of primal infeasibility, which the cold solver
// then re-derives) or an exhausted pivot budget.
func (s *simplex) dualSimplex() bool {
	tol := s.opts.Tol
	sinceRefresh := 0
	var cands []dualCand
	var flips []int
	for {
		if s.iters >= s.opts.MaxIter {
			return false
		}
		if sinceRefresh >= 200 {
			s.initReducedCosts(s.costII)
			sinceRefresh = 0
		}
		// Leaving row: the most violated basic variable (first violated row
		// under the anti-cycling rule).
		r, viol, needUp := -1, tol, false
		for i := 0; i < s.m; i++ {
			v := s.basis[i]
			if d := s.lower[v] - s.xB[i]; d > viol {
				r, viol, needUp = i, d, true
			} else if d := s.xB[i] - s.upper[v]; d > viol {
				r, viol, needUp = i, d, false
			}
			if r >= 0 && s.bland {
				break
			}
		}
		if r < 0 {
			return true // primal feasible
		}
		row := s.tab[r]
		cands = cands[:0]
		for j := 0; j < s.total; j++ {
			st := s.status[j]
			if st == basic {
				continue
			}
			span := s.upper[j] - s.lower[j]
			if st != isFree && span < tol {
				continue
			}
			a := row[j]
			if a > -tol && a < tol {
				continue
			}
			// The entering variable may move up from a lower bound, down
			// from an upper bound, or either way when free; it must move
			// the violated basic value toward the violated bound.
			var ok bool
			var e float64
			switch st {
			case atLower:
				if needUp {
					ok = a < 0
				} else {
					ok = a > 0
				}
				e = s.z[j] / math.Abs(a)
			case atUpper:
				if needUp {
					ok = a > 0
				} else {
					ok = a < 0
				}
				e = -s.z[j] / math.Abs(a)
			case isFree:
				ok = true
				e = math.Abs(s.z[j]) / math.Abs(a)
			}
			if !ok {
				continue
			}
			if e < 0 {
				e = 0
			}
			cands = append(cands, dualCand{j: j, alpha: a, ratio: e, span: span})
		}
		if len(cands) == 0 {
			return false // dual certificate of primal infeasibility
		}
		enter := -1
		flips = flips[:0]
		if s.bland {
			// Lowest-index minimum-ratio column, no bound flips: the dual
			// analogue of Bland's rule.
			bestE := math.Inf(1)
			for i, c := range cands {
				if c.ratio < bestE {
					bestE, enter = c.ratio, i
				}
			}
		} else {
			// Bound-flipping ratio test: walk the candidates in dual-ratio
			// order; as long as flipping the candidate to its other bound
			// still leaves violation to absorb, flip it and keep going, so
			// one dual pivot can retire many box variables at once.
			sort.Slice(cands, func(a, b int) bool {
				ca, cb := cands[a], cands[b]
				if ca.ratio != cb.ratio {
					return ca.ratio < cb.ratio
				}
				aa, ab := math.Abs(ca.alpha), math.Abs(cb.alpha)
				if aa != ab {
					return aa > ab
				}
				return ca.j < cb.j
			})
			remain := viol
			for i, c := range cands {
				if isPosInf(c.span) || remain-math.Abs(c.alpha)*c.span <= tol {
					enter = i
					break
				}
				remain -= math.Abs(c.alpha) * c.span
				flips = append(flips, i)
			}
			if enter < 0 {
				return false // all candidates flip and violation remains
			}
		}
		for _, fi := range flips {
			c := cands[fi]
			j := c.j
			var delta float64
			if s.status[j] == atLower {
				delta = c.span
				s.status[j], s.xN[j] = atUpper, s.upper[j]
			} else {
				delta = -c.span
				s.status[j], s.xN[j] = atLower, s.lower[j]
			}
			s.boundFlips++
			for i := 0; i < s.m; i++ {
				if a := s.tab[i][j]; a != 0 {
					s.xB[i] -= a * delta
					s.xN[s.basis[i]] = s.xB[i]
				}
			}
		}
		c := cands[enter]
		j := c.j
		piv := s.tab[r][j]
		if math.Abs(piv) < 1e-11 {
			return false
		}
		leaving := s.basis[r]
		var beta float64
		if needUp {
			beta = s.lower[leaving]
		} else {
			beta = s.upper[leaving]
		}
		delta := (s.xB[r] - beta) / piv
		enterVal := s.xN[j] + delta
		for i := 0; i < s.m; i++ {
			if a := s.tab[i][j]; a != 0 {
				s.xB[i] -= a * delta
				s.xN[s.basis[i]] = s.xB[i]
			}
		}
		if needUp {
			s.status[leaving], s.xN[leaving] = atLower, s.lower[leaving]
		} else {
			s.status[leaving], s.xN[leaving] = atUpper, s.upper[leaving]
		}
		inv := 1 / piv
		prow := s.tab[r]
		for k := range prow {
			prow[k] *= inv
		}
		s.rhs[r] *= inv
		for i := 0; i < s.m; i++ {
			if i == r {
				continue
			}
			f := s.tab[i][j]
			if f == 0 {
				continue
			}
			rowi := s.tab[i]
			for k := range rowi {
				rowi[k] -= f * prow[k]
			}
			rowi[j] = 0
			s.rhs[i] -= f * s.rhs[r]
		}
		if zf := s.z[j]; zf != 0 {
			for k := range s.z {
				s.z[k] -= zf * prow[k]
			}
			s.z[j] = 0
		}
		s.basis[r] = j
		s.status[j] = basic
		s.xB[r] = enterVal
		s.xN[j] = enterVal
		s.iters++
		s.dualPivots++
		sinceRefresh++
		if c.ratio <= tol {
			s.stall++
			if s.stall > s.m+s.total {
				s.bland = true
			}
		} else {
			s.stall = 0
		}
	}
}
