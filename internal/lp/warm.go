package lp

import (
	"cmp"
	"math"
	"slices"
)

// This file implements the warm-started solve path: given a Basis from an
// earlier solve of the same problem shape, factor that basis (or reuse the
// factorization the workspace retained when the basis is unchanged) and —
// because bound changes cannot disturb dual feasibility — restore primal
// feasibility with bound-flipping dual simplex pivots instead of a full
// phase-I/phase-II cold solve. A warm Optimal verdict is certified by the
// exact phase-II pass the cold solve ends on. A warm Infeasible verdict is
// certified by an independent Farkas check (farkas.go) on the certificate
// row y = σ∘BTRAN(e_r) for the leaving position r and the setup row signs σ.
// Whenever any step cannot be certified (singular factorization,
// dual-infeasible basis with an infeasible primal start, a rejected Farkas
// certificate, suspected unboundedness, numerical trouble), the caller
// falls back to the cold two-phase solve, which also re-derives every
// Unbounded verdict.

// trySolveWarm attempts a warm-started solve from basis b: the warm basis
// seeds the LU factorization directly (reusing the cached factorization
// when the basis set is unchanged), then the bound-flipping dual simplex
// restores primal feasibility and the exact phase-II pass certifies. A nil
// Solution means the caller must cold-solve; the returned engine (when
// non-nil) carries the attempt's counters either way. Farkas checks are
// counted in stats.
func trySolveWarm(p *Problem, opts Options, b *Basis, stats *solveStats) (*revised, *Solution) {
	m, n, nslack := len(p.rows), p.nvars, p.numSlacks()
	if !b.matches(n, m, nslack) {
		return nil, nil
	}
	ws := opts.Workspace
	wanted := ws.wanted[:0]
	for j, st := range b.status {
		if st == basic {
			wanted = append(wanted, j)
		}
	}
	ws.wanted = wanted
	if len(wanted) != m {
		return nil, nil
	}

	// Engine acquisition: the workspace-retained engine, whose matrix and LU
	// are reusable only when certified for p's current state and shape, on
	// the kernel this solve picked.
	luValid := ws.eng != nil && ws.engProb == p && ws.eng.cacheRev == p.rev &&
		ws.eng.m == m && ws.eng.n == n && ws.eng.nslack == nslack && ws.eng.kern == opts.kernel
	e := ws.engine()
	if luValid {
		e.opts = opts
		e.maximize, e.userC = p.maximize, p.c
		e.loadBoundsAndCost(p)
	} else {
		e.reinit(p, opts)
	}
	if !e.warmFactor(b, wanted, luValid) {
		return e, nil
	}
	e.resetCounters()
	e.warmRestore(b)
	if e.warmDualFeasible() {
		switch out, r := e.dualSimplex(); out {
		case dualFailed:
			return e, nil
		case dualInfeasible:
			e.rayRow(r, ws.farkasRay(p))
			return e, certifyInfeasible(p, ws, stats)
		}
	} else if !e.warmPrimalFeasible() {
		return e, nil
	}
	// Certification pass: exact reduced costs, primal pivots if the basis
	// is not yet optimal — the same optimality test the cold engine ends on.
	st, err := e.optimize(e.costII)
	if err != nil || st != Optimal {
		return e, nil
	}
	sol := e.assemble()
	sol.Warm = true
	return e, sol
}

// certifyInfeasible runs the Farkas check on the certificate row the engine
// loaded into the workspace (farkasRay) and returns the warm Infeasible
// verdict when it passes, or nil (cold fallback) when it does not.
func certifyInfeasible(p *Problem, ws *Workspace, stats *solveStats) *Solution {
	if tamperRay != nil {
		tamperRay(ws.farkasY)
	}
	if !farkasCertified(p, ws.farkasY, ws.farkasG) {
		stats.farkasRejected++
		return nil
	}
	stats.farkasCertified++
	// The verdict lives in the workspace, like an optimum's vectors, so the
	// infeasible-node path allocates nothing.
	ws.sol = Solution{Status: Infeasible, Warm: true}
	return &ws.sol
}

// maxCheckpoints bounds the checkpoint stack; the oldest entry goes first.
const maxCheckpoints = 16

// checkpoint is a basis the factorization held, in position order, and the
// eta-file length at which it held it.
type checkpoint struct {
	etas  int
	basis []int
}

// warmFactor makes the engine's factorization factor basis b, whose
// variables wanted lists. On a retained engine (retained set) it often has
// one at hand in branch-and-bound order: the final basis of the node solved
// last, when this node is its child; or, on the dense kernel, a checkpoint
// — the start of a later solve, which is the parent's final basis of the
// siblings of that node and of its ancestors — so the eta file is truncated
// back to it. Otherwise it refactorizes, and reports false when that fails.
// Only the dense kernel keeps checkpoints: they save its O(m³)
// factorization, while a sparse one costs less than the eta terms kept.
func (e *revised) warmFactor(b *Basis, wanted []int, retained bool) bool {
	if !retained || !isBasis(e.basis, b) {
		d := e.nck - 1
		for d >= 0 && !isBasis(e.ck[d].basis, b) {
			d--
		}
		if d >= 0 {
			e.truncateEtas(e.ck[d].etas)
			copy(e.basis, e.ck[d].basis)
			e.nck = d
		} else {
			copy(e.basis, wanted)
			if e.refactor() != nil {
				return false
			}
		}
	}
	if e.kern == kernelDense {
		e.checkpoint()
	}
	return true
}

// checkpoint pushes the current basis and eta-file length, replacing the
// top entry when no pivot has happened since it and dropping the oldest
// when the stack is full.
func (e *revised) checkpoint() {
	if e.nck > 0 && e.ck[e.nck-1].etas == e.netas {
		e.nck-- // no pivots since: the same basis
	}
	if e.nck == maxCheckpoints {
		old := e.ck[0]
		copy(e.ck, e.ck[1:])
		e.ck[e.nck-1] = old
		e.nck--
	}
	if e.nck == len(e.ck) {
		e.ck = append(e.ck, checkpoint{})
	}
	c := &e.ck[e.nck]
	c.etas, c.basis = e.netas, append(c.basis[:0], e.basis...)
	e.nck++
}

// isBasis reports whether the variables of vars are the basis b names:
// both hold m variables, so containment is equality.
func isBasis(vars []int, b *Basis) bool {
	for _, v := range vars {
		if b.status[v] != basic {
			return false
		}
	}
	return true
}

// warmRestore places every variable per the warm basis (artificials pinned
// to zero exactly as after a cold phase I), recomputes the basic values with
// one FTRAN, and rebuilds the reduced costs exactly.
func (e *revised) warmRestore(b *Basis) {
	for j := e.artOff; j < e.total; j++ {
		e.lower[j], e.upper[j] = 0, 0
	}
	for j, st := range b.status {
		switch {
		case st == basic:
			// placed below, once values are known
		case st == atUpper && !isPosInf(e.upper[j]):
			e.place(j, atUpper)
		default:
			e.place(j, defaultPlacement(e.lower[j], e.upper[j]))
		}
	}
	// xB = B⁻¹(b' − Σ A'_j·x_j) over nonbasic variables off zero.
	v := e.col
	for i := range v {
		v[i] = e.mat.rhs[i]
	}
	for j := 0; j < e.total; j++ {
		if b.status[j] == basic || e.xN[j] == 0 {
			continue
		}
		x := e.xN[j]
		if j >= e.artOff {
			v[j-e.artOff] -= x
			continue
		}
		rows, vals := e.mat.col(j)
		for q, i := range rows {
			v[i] -= vals[q] * x
		}
	}
	e.ftranVec(v)
	for pos, vr := range e.basis {
		e.status[vr] = basic
		e.xB[pos] = v[pos]
		e.xN[vr] = v[pos]
	}
	e.refreshZ(e.costII)
}

// warmDualFeasible reports whether every nonbasic variable prices out the
// right way, deciding between the dual simplex and a primal certify pass.
// The threshold scales with the objective magnitude (big-M KKT problems
// carry costs around 1e5) because this is only a routing decision:
// optimality is still certified by the exact phase-II pass afterwards.
func (e *revised) warmDualFeasible() bool {
	maxC := 0.0
	for _, c := range e.costII {
		if a := math.Abs(c); a > maxC {
			maxC = a
		}
	}
	dtol := e.opts.tol * (1 + maxC)
	for j := 0; j < e.total; j++ {
		st := e.status[j]
		if st == basic || st != isFree && e.upper[j]-e.lower[j] < e.opts.tol {
			continue // basic, or fixed: can never move
		}
		if zj := e.z[j]; st != atUpper && zj < -dtol || st != atLower && zj > dtol {
			return false
		}
	}
	return true
}

// warmPrimalFeasible reports whether every basic value sits within bounds.
func (e *revised) warmPrimalFeasible() bool {
	tol := e.opts.tol
	for i := 0; i < e.m; i++ {
		v := e.basis[i]
		if e.xB[i] < e.lower[v]-tol || e.xB[i] > e.upper[v]+tol {
			return false
		}
	}
	return true
}

// rayRow loads the certificate row for leaving position r into y in the
// problem's original row signs: y = σ∘BTRAN(e_r). The dual simplex stops
// right after pricing row r, so e.rho already holds BTRAN(e_r).
func (e *revised) rayRow(r int, y []float64) {
	for i := range y {
		y[i] = e.rho[i]
		if e.mat.rhsFlip[i] {
			y[i] = -e.rho[i]
		}
	}
}

// dualCand is one eligible entering column for a dual pivot.
type dualCand struct {
	j     int
	alpha float64 // pivot-row entry
	ratio float64 // dual ratio |z_j / alpha|
	span  float64 // distance between the variable's bounds
}

// compareDualCands orders dual ratio-test candidates by (ratio asc, |alpha|
// desc, j asc) — a strict total order (j is unique), so the sorted sequence
// is independent of the sort algorithm.
func compareDualCands(a, b dualCand) int {
	if a.ratio != b.ratio {
		return cmp.Compare(a.ratio, b.ratio)
	}
	if aa, ab := math.Abs(a.alpha), math.Abs(b.alpha); aa != ab {
		return cmp.Compare(ab, aa)
	}
	return cmp.Compare(a.j, b.j)
}

// dualOutcome is how a warm dual simplex run ended.
type dualOutcome int8

const (
	dualFeasible   dualOutcome = iota // every basic variable is within its bounds
	dualInfeasible                    // the returned leaving row is a dual ray
	dualFailed                        // pivot budget, tiny pivot, or drift
)

// dualSimplex runs bound-flipping dual pivots until every basic variable is
// back inside its bounds. Dual feasibility of the reduced costs is the loop
// invariant (kept by the min-ratio rule), so no phase I is needed. The
// leaving row — the most violated basic variable, or the first under the
// anti-cycling rule — is priced with one BTRAN; the bound-flipping ratio
// test walks the candidates in dual-ratio order, flipping each to its other
// bound while violation remains to absorb, so one dual pivot can retire
// many box variables; the accumulated flips cost one FTRAN, and the
// entering column one more. It stops with dualInfeasible and the leaving
// position r when no entering column can repair that row — none is
// eligible, or every candidate flips and violation remains — which makes
// row r of B⁻¹ the standard dual certificate of primal infeasibility; on
// that exit e.rho holds BTRAN(e_r), and the caller checks the certificate
// independently before trusting it.
//
// An entering column whose pivot element is numerically zero is banned and
// the ratio test redone without it, up to maxDualBans times before one
// pivot succeeds. While a column is banned neither infeasibility exit is a
// proof — the banned column may have been the one to enter — so both
// report dualFailed instead. Bound flips applied before a banned pivot
// stay: they are primal moves, and the certification pass after a
// dualFeasible exit re-prices from exact reduced costs.
func (e *revised) dualSimplex() (dualOutcome, int) {
	const maxDualBans = 8
	var banned [maxDualBans]int
	nbanned := 0
	tol := e.opts.tol
	sinceRefresh := 0
	cands := e.cands
	flips := e.flips
	defer func() {
		e.cands = cands[:0]
		e.flips = flips[:0]
	}()
	for {
		if e.iters >= e.opts.maxIter {
			return dualFailed, -1
		}
		if sinceRefresh >= 200 {
			e.refreshZ(e.costII)
			sinceRefresh = 0
		}
		r, viol, needUp := -1, tol, false
		for i := 0; i < e.m; i++ {
			v := e.basis[i]
			if d := e.lower[v] - e.xB[i]; d > viol {
				r, viol, needUp = i, d, true
			} else if d := e.xB[i] - e.upper[v]; d > viol {
				r, viol, needUp = i, d, false
			}
			if r >= 0 && e.bland {
				break
			}
		}
		if r < 0 {
			return dualFeasible, -1
		}
		e.pivotRow(r)
		cands = cands[:0]
		for j := 0; j < e.total; j++ {
			st := e.status[j]
			if st == basic {
				continue
			}
			span := e.upper[j] - e.lower[j]
			if st != isFree && span < tol {
				continue
			}
			a := e.arow[j]
			if a > -tol && a < tol || nbanned > 0 && slices.Contains(banned[:nbanned], j) {
				continue
			}
			// The entering variable must move the violated basic value
			// toward its bound: up from a lower bound, down from an upper
			// one, either way when free. a is nonzero here.
			ok, ratio := true, math.Abs(e.z[j])
			switch st {
			case atLower:
				ok, ratio = (a < 0) == needUp, e.z[j]
			case atUpper:
				ok, ratio = (a > 0) == needUp, -e.z[j]
			}
			if !ok {
				continue
			}
			if ratio /= math.Abs(a); ratio < 0 {
				ratio = 0
			}
			cands = append(cands, dualCand{j: j, alpha: a, ratio: ratio, span: span})
		}
		if len(cands) == 0 {
			if nbanned > 0 {
				return dualFailed, -1
			}
			return dualInfeasible, r // no eligible entering column
		}
		enter := -1
		flips = flips[:0]
		if e.bland {
			bestE := math.Inf(1)
			for i, c := range cands {
				if c.ratio < bestE {
					bestE, enter = c.ratio, i
				}
			}
		} else {
			slices.SortFunc(cands, compareDualCands)
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
				if nbanned > 0 {
					return dualFailed, -1
				}
				return dualInfeasible, r // all candidates flip and violation remains
			}
		}
		if len(flips) > 0 {
			// Apply every flip's effect on xB with one combined FTRAN:
			// xB −= B⁻¹(Σ A'_j·δ_j).
			for i := range e.dv {
				e.dv[i] = 0
			}
			for _, fi := range flips {
				c := cands[fi]
				j := c.j
				var delta float64
				if e.status[j] == atLower {
					delta = c.span
					e.status[j], e.xN[j] = atUpper, e.upper[j]
				} else {
					delta = -c.span
					e.status[j], e.xN[j] = atLower, e.lower[j]
				}
				e.boundFlips++
				if j >= e.artOff {
					e.dv[j-e.artOff] += delta
					continue
				}
				rows, vals := e.mat.col(j)
				for q, i := range rows {
					e.dv[i] += vals[q] * delta
				}
			}
			e.ftranVec(e.dv)
			for i := 0; i < e.m; i++ {
				if d := e.dv[i]; d != 0 {
					e.xB[i] -= d
					e.xN[e.basis[i]] = e.xB[i]
				}
			}
		}
		c := cands[enter]
		j := c.j
		e.ftranCol(j)
		piv := e.col[r]
		if !pivotsAgree(piv, c.alpha) {
			// The ratio test accepted arow[j] but the entering column says
			// the pivot element is a different number: eta drift. Rebuild
			// the factorization and recompute both sides before pivoting on
			// it — dividing the primal step by the stale value is how
			// near-singular pivots produce runaway basic values.
			if e.refactor() != nil {
				return dualFailed, -1
			}
			e.pivotRow(r)
			e.ftranCol(j)
			piv = e.col[r]
			c.alpha = e.arow[j]
			if !pivotsAgree(piv, c.alpha) {
				return dualFailed, -1
			}
		}
		if math.Abs(piv) < 1e-11 {
			if nbanned == maxDualBans {
				return dualFailed, -1
			}
			banned[nbanned] = j
			nbanned++
			continue
		}
		nbanned = 0
		leaving := e.basis[r]
		var beta float64
		if needUp {
			beta = e.lower[leaving]
		} else {
			beta = e.upper[leaving]
		}
		delta := (e.xB[r] - beta) / piv
		enterVal := e.xN[j] + delta
		for i := 0; i < e.m; i++ {
			if a := e.col[i]; a != 0 {
				e.xB[i] -= a * delta
				e.xN[e.basis[i]] = e.xB[i]
			}
		}
		if needUp {
			e.status[leaving], e.xN[leaving] = atLower, e.lower[leaving]
		} else {
			e.status[leaving], e.xN[leaving] = atUpper, e.upper[leaving]
		}
		if zf := e.z[j]; zf != 0 {
			f := zf / e.arow[j]
			for k := 0; k < e.total; k++ {
				if a := e.arow[k]; a != 0 {
					e.z[k] -= f * a
				}
			}
		}
		e.z[j] = 0
		e.appendEta(r)
		e.basis[r] = j
		e.status[j] = basic
		e.xB[r] = enterVal
		e.xN[j] = enterVal
		if e.netas >= etaRefactorLimit {
			if err := e.refactor(); err != nil {
				return dualFailed, -1
			}
		}
		e.iters++
		e.dualPivots++
		sinceRefresh++
		if c.ratio <= tol {
			e.stall++
			if e.stall > e.m+e.total {
				e.bland = true
			}
		} else {
			e.stall = 0
		}
	}
}
