package lp

import (
	"fmt"
	"math"

	"github.com/edsec/edattack/internal/sparse"
)

// This file implements the revised simplex engine. It is a bounded-variable
// two-phase simplex — Dantzig pricing with a Bland fallback, bound-flipping
// ratio tests, an exact reduced-cost refresh every 200 pivots — that
// represents the basis inverse implicitly: the constraint matrix is stored
// once in compressed-column form, the basis is an LU factorization (sparse
// Markowitz or dense partial pivoting, see kernel.go), and each simplex
// pivot appends one product-form eta term. Entering columns come from FTRAN
// solves, pivot rows (for reduced-cost updates and dual pricing) from BTRAN
// solves. The eta file is folded back into a fresh factorization every
// etaRefactorLimit pivots, bounding both solve cost and drift. The warm
// path, which seeds the factorization from a Basis, is in warm.go.

// etaRefactorLimit is the eta-file length at which the basis is
// refactorized. Each FTRAN/BTRAN applies every eta term, so long files make
// solves linear in pivot history; 64 keeps the product form short while
// amortizing the factorization over many pivots.
const etaRefactorLimit = 64

// pivAgreeTol bounds the relative disagreement tolerated between the
// FTRAN-computed and BTRAN-computed values of one pivot element. The two are
// the same number in exact arithmetic; eta-file drift makes them diverge,
// and dividing primal updates by one while the ratio test accepted the other
// is exactly how a near-singular pivot slips through. On disagreement the
// basis is refactorized and both are recomputed.
const pivAgreeTol = 1e-7

func pivotsAgree(a, b float64) bool {
	return math.Abs(a-b) <= pivAgreeTol*(1+math.Abs(a)+math.Abs(b))
}

// rmatrix is the flipped constraint matrix [A'|S'] of one problem shape in
// compressed-column form (artificial columns are an implicit identity). Each
// row is sign-flipped where its artificial would otherwise start negative.
// The matrix is immutable after construction and is retained across warm
// solves with the engine cache.
type rmatrix struct {
	m, n, nslack, total, artOff int

	colPtr []int // len artOff+1: structural then slack columns
	rowInd []int
	colVal []float64

	rhsFlip []bool
	rhs     []float64 // sign-flipped RHS per row
}

// col returns structural or slack column j as its row indices and values.
func (mt *rmatrix) col(j int) ([]int, []float64) {
	lo, hi := mt.colPtr[j], mt.colPtr[j+1]
	vals := mt.colVal[lo:hi]
	return mt.rowInd[lo:hi][:len(vals)], vals
}

// buildRMatrixInto compresses the problem's rows into column form in mt's
// existing arrays (grown as needed; a nil mt starts fresh), with build
// temporaries drawn from ws. A row is flipped when its residual at the
// initial nonbasic placement is negative, so every artificial starts
// nonnegative.
func buildRMatrixInto(p *Problem, mt *rmatrix, ws *Workspace) *rmatrix {
	m, n, nslack := len(p.rows), p.nvars, p.numSlacks()
	if mt == nil {
		mt = &rmatrix{}
	}
	mt.m, mt.n, mt.nslack = m, n, nslack
	mt.total = n + nslack + m
	mt.artOff = n + nslack
	mt.rhsFlip = growBool(mt.rhsFlip, m)
	mt.rhs = growFloat(mt.rhs, m)
	// Initial nonbasic placement of structural variables (slacks start at
	// zero), which decides the flips.
	ws.bx0 = growFloat(ws.bx0, n)
	ws.bcnt = growInt(ws.bcnt, mt.artOff)
	ws.bnext = growInt(ws.bnext, mt.artOff)
	x0, cnt, next := ws.bx0, ws.bcnt, ws.bnext
	for i := range cnt {
		cnt[i] = 0
	}
	for j := 0; j < n; j++ {
		x0[j] = 0
		switch {
		case !math.IsInf(p.lower[j], -1):
			x0[j] = p.lower[j]
		case !math.IsInf(p.upper[j], 1):
			x0[j] = p.upper[j]
		}
	}
	for _, r := range p.rows {
		for _, j := range r.ind {
			cnt[j]++
		}
	}
	for j := n; j < mt.artOff; j++ {
		cnt[j] = 1
	}
	mt.colPtr = growInt(mt.colPtr, mt.artOff+1)
	mt.colPtr[0] = 0
	for j := 0; j < mt.artOff; j++ {
		mt.colPtr[j+1] = mt.colPtr[j] + cnt[j]
	}
	nnz := mt.colPtr[mt.artOff]
	mt.rowInd = growInt(mt.rowInd, nnz)
	mt.colVal = growFloat(mt.colVal, nnz)
	copy(next, mt.colPtr[:mt.artOff])

	slackAt := n
	for i, r := range p.rows {
		resid := r.rhs
		for k, j := range r.ind {
			resid -= r.val[k] * x0[j]
		}
		flip := resid < 0
		mt.rhsFlip[i] = flip
		sign := 1.0
		if flip {
			sign = -1
		}
		mt.rhs[i] = sign * r.rhs
		for k, j := range r.ind {
			mt.rowInd[next[j]] = i
			mt.colVal[next[j]] = sign * r.val[k]
			next[j]++
		}
		switch r.rel {
		case LE:
			mt.rowInd[next[slackAt]] = i
			mt.colVal[next[slackAt]] = sign
			next[slackAt]++
			slackAt++
		case GE:
			mt.rowInd[next[slackAt]] = i
			mt.colVal[next[slackAt]] = -sign
			next[slackAt]++
			slackAt++
		}
	}
	return mt
}

// revised is the working state of one revised-simplex solve. Basis
// positions (the LU's column order) index xB, the eta file, and FTRAN
// outputs.
type revised struct {
	opts Options

	m, n, nslack, total, artOff int
	mat                         *rmatrix

	lower, upper []float64 // per variable, incl. slack/artificial
	costII       []float64
	z            []float64
	basis        []int // basis[pos] = variable
	status       []varStatus
	xB           []float64 // per position
	xN           []float64 // per variable

	// The basis factorization: the sparse LU (lu) or the dense one (dlu),
	// as kern says; see kernel.go.
	kern kernel
	lu   *sparse.LU
	dlu  denseLU
	// Product-form eta file: term k pivots position etaPiv[k] with diagonal
	// etaDiag[k] and off-diagonal entries etaPos/etaVal[etaPtr[k]:etaPtr[k+1]].
	etaPtr  []int
	etaPos  []int
	etaVal  []float64
	etaPiv  []int
	etaDiag []float64
	netas   int

	iters       int
	phase1Iters int
	degenPivots int
	boundFlips  int
	dualPivots  int
	ftran       int
	btran       int
	etaApps     int
	refactors   int
	bland       bool
	stall       int

	maximize bool
	userC    []float64

	col  []float64 // FTRAN scratch (row space in, position space out)
	rho  []float64 // BTRAN scratch (position space in, row space out)
	arow []float64 // pivot row over every column
	dv   []float64 // row-space accumulator for dual bound flips

	// cacheRev records Problem.rev when the finished engine was retained as
	// the next warm solve's starting state (see Workspace.retain).
	cacheRev int

	// ck[:nck] checkpoints the start of each warm solve since the last
	// refactorization, on the dense kernel (see warmFactor).
	ck  []checkpoint
	nck int

	// ws is the workspace this engine draws factorization scratch and
	// solution buffers from (and is retained on between solves).
	ws *Workspace

	// Per-engine reusable scratch: phase-I cost vector, refactorization
	// column pointers, unit artificial columns (artRow[i:i+1]/artOne[i:i+1]
	// is column i of the identity), and the dual ratio-test candidate and
	// flip lists.
	costI  []float64
	refInd [][]int
	refVal [][]float64
	artRow []int
	artOne []float64
	cands  []dualCand
	flips  []int
}

// newRevised builds a cold-start engine: matrix rebuilt from the problem's
// current state, artificial basis, identity LU. The workspace's retained
// engine lends its allocations; the matrix is still rebuilt so a cold solve
// never depends on retained state (bound edits change the flip pattern
// without bumping rev).
func newRevised(p *Problem, opts Options) (*revised, error) {
	e := opts.Workspace.engine()
	e.reinit(p, opts)

	for j := 0; j < e.total; j++ {
		e.place(j, defaultPlacement(e.lower[j], e.upper[j]))
	}
	// Artificial basis: position i holds artificial i, so B is the identity.
	for i := 0; i < e.m; i++ {
		e.basis[i] = e.artOff + i
	}
	if err := e.refactor(); err != nil {
		return nil, fmt.Errorf("lp: factorizing identity basis: %w", err)
	}
	e.refactors-- // the initial factorization is setup, not churn
	// Residuals the artificials absorb: v = b' − Σ A'_j·x_j over nonbasic
	// structural values (B = I, so xB = v directly).
	v := e.col
	for i := range v {
		v[i] = e.mat.rhs[i]
	}
	for j := 0; j < e.artOff; j++ {
		if x := e.xN[j]; x != 0 {
			rows, vals := e.mat.col(j)
			for q, i := range rows {
				v[i] -= vals[q] * x
			}
		}
	}
	for i := 0; i < e.m; i++ {
		art := e.artOff + i
		e.basis[i] = art
		e.status[art] = basic
		e.xB[i] = v[i]
		e.xN[art] = v[i]
	}
	return e, nil
}

// reinit (re)initializes an engine for p: it rebuilds the matrix in the
// engine's arrays, grows (or on a fresh engine, allocates) every working
// array, resets counters and eta state, and recycles the previous LU's
// arrays into the workspace's factorization scratch. After reinit no stale
// array content is ever read before being rewritten (the cold and warm
// setup paths write every slot they use).
func (e *revised) reinit(p *Problem, opts Options) {
	mt := buildRMatrixInto(p, e.mat, e.ws)
	e.opts = opts
	e.kern = opts.kernel
	e.m, e.n, e.nslack = mt.m, mt.n, mt.nslack
	e.total, e.artOff = mt.total, mt.artOff
	e.mat = mt
	e.maximize, e.userC = p.maximize, p.c
	e.lower = growFloat(e.lower, mt.total)
	e.upper = growFloat(e.upper, mt.total)
	e.costII = growFloat(e.costII, mt.total)
	e.z = growFloat(e.z, mt.total)
	e.basis = growInt(e.basis, mt.m)
	if cap(e.status) < mt.total {
		e.status = make([]varStatus, mt.total)
	} else {
		e.status = e.status[:mt.total]
	}
	e.xB = growFloat(e.xB, mt.m)
	e.xN = growFloat(e.xN, mt.total)
	if cap(e.etaPtr) == 0 {
		e.etaPtr = make([]int, 1, etaRefactorLimit+1)
	}
	e.truncateEtas(0)
	if e.lu != nil {
		e.ws.fact.Recycle(e.lu)
		e.lu = nil
	}
	e.col = growFloat(e.col, mt.m)
	e.rho = growFloat(e.rho, mt.m)
	e.arow = growFloat(e.arow, mt.total)
	e.dv = growFloat(e.dv, mt.m)
	e.artRow = growInt(e.artRow, mt.m)
	e.artOne = growFloat(e.artOne, mt.m)
	for i := 0; i < mt.m; i++ {
		e.artRow[i] = i
		e.artOne[i] = 1
	}
	e.resetCounters()
	e.cacheRev = 0
	e.nck = 0
	e.loadBoundsAndCost(p)
}

// resetCounters zeroes the per-solve work counters and the anti-cycling
// state.
func (e *revised) resetCounters() {
	e.iters, e.phase1Iters, e.degenPivots, e.boundFlips, e.dualPivots = 0, 0, 0, 0, 0
	e.ftran, e.btran, e.etaApps, e.refactors = 0, 0, 0, 0
	e.bland, e.stall = false, 0
}

// place makes variable j nonbasic at the bound st names, or at 0 when st
// is isFree.
func (e *revised) place(j int, st varStatus) {
	e.status[j] = st
	switch st {
	case atLower:
		e.xN[j] = e.lower[j]
	case atUpper:
		e.xN[j] = e.upper[j]
	default:
		e.xN[j] = 0
	}
}

// loadBoundsAndCost refreshes the per-variable bound and cost vectors from
// the problem (slacks [0,∞), artificials [0,∞) until pinned).
func (e *revised) loadBoundsAndCost(p *Problem) {
	copy(e.lower[:e.n], p.lower)
	copy(e.upper[:e.n], p.upper)
	for j := e.n; j < e.total; j++ {
		e.lower[j], e.upper[j] = 0, math.Inf(1)
	}
	sign := 1.0
	if p.maximize {
		sign = -1
	}
	for j := 0; j < e.total; j++ {
		if j < e.n {
			e.costII[j] = sign * p.c[j]
		} else {
			e.costII[j] = 0
		}
	}
}

// scatterCol adds column j of the internal matrix [A'|S'|I] into out (row
// space).
func (e *revised) scatterCol(j int, out []float64) {
	if j >= e.artOff {
		out[j-e.artOff]++
		return
	}
	rows, vals := e.mat.col(j)
	for q, i := range rows {
		out[i] += vals[q]
	}
}

// colEntries returns column j as (rows, values) slices for LU assembly.
// Artificial columns are served from the precomputed identity arrays so the
// hot refactorization path allocates nothing.
func (e *revised) colEntries(j int) ([]int, []float64) {
	if j >= e.artOff {
		i := j - e.artOff
		return e.artRow[i : i+1], e.artOne[i : i+1]
	}
	return e.mat.col(j)
}

// eta returns the off-diagonal positions and values of eta term k.
func (e *revised) eta(k int) ([]int, []float64) {
	lo, hi := e.etaPtr[k], e.etaPtr[k+1]
	vals := e.etaVal[lo:hi]
	return e.etaPos[lo:hi][:len(vals)], vals
}

// ftranVec solves B·x = v in place: v enters in row space, leaves as the
// basic-position representation x = B⁻¹v.
func (e *revised) ftranVec(v []float64) {
	e.luSolve(v)
	for k := 0; k < e.netas; k++ {
		r := e.etaPiv[k]
		t := v[r] / e.etaDiag[k]
		if t != 0 {
			pos, vals := e.eta(k)
			for q, i := range pos {
				v[i] -= vals[q] * t
			}
		}
		v[r] = t
	}
	e.ftran++
	e.etaApps += e.netas
}

// btranVec solves Bᵀ·y = w in place: w enters in basic-position space,
// leaves in row space. Eta transposes apply in reverse order before the LU.
func (e *revised) btranVec(w []float64) {
	for k := e.netas - 1; k >= 0; k-- {
		r := e.etaPiv[k]
		s := w[r]
		pos, vals := e.eta(k)
		for q, i := range pos {
			s -= vals[q] * w[i]
		}
		w[r] = s / e.etaDiag[k]
	}
	e.luSolveT(w)
	e.btran++
	e.etaApps += e.netas
}

// ftranCol loads B⁻¹·(column j) into e.col.
func (e *revised) ftranCol(j int) {
	for i := range e.col {
		e.col[i] = 0
	}
	e.scatterCol(j, e.col)
	e.ftranVec(e.col)
}

// pivotRow loads row r of B⁻¹·[A'|S'|I] into e.arow via one BTRAN: the row
// is ρᵀ·N with ρ = B⁻ᵀe_r.
func (e *revised) pivotRow(r int) {
	for i := range e.rho {
		e.rho[i] = 0
	}
	e.rho[r] = 1
	e.btranVec(e.rho)
	rho := e.rho
	for j := 0; j < e.artOff; j++ {
		var s float64
		rows, vals := e.mat.col(j)
		for q, i := range rows {
			s += vals[q] * rho[i]
		}
		e.arow[j] = s
	}
	copy(e.arow[e.artOff:], rho)
}

// truncateEtas cuts the eta file back to its first k terms.
func (e *revised) truncateEtas(k int) {
	e.etaPtr = e.etaPtr[:k+1]
	e.etaPos = e.etaPos[:e.etaPtr[k]]
	e.etaVal = e.etaVal[:e.etaPtr[k]]
	e.etaPiv = e.etaPiv[:k]
	e.etaDiag = e.etaDiag[:k]
	e.netas = k
}

// appendEta records the product-form term of a pivot at position r whose
// entering column (B_old⁻¹ A_enter) is currently in e.col.
func (e *revised) appendEta(r int) {
	for i, v := range e.col {
		if i != r && v != 0 {
			e.etaPos = append(e.etaPos, i)
			e.etaVal = append(e.etaVal, v)
		}
	}
	e.etaPiv = append(e.etaPiv, r)
	e.etaDiag = append(e.etaDiag, e.col[r])
	e.etaPtr = append(e.etaPtr, len(e.etaPos))
	e.netas++
}

// refactor rebuilds the basis factorization from the current basis columns
// and clears the eta file. A failed factorization leaves the current one in
// place.
func (e *revised) refactor() error {
	if err := e.factor(); err != nil {
		return err
	}
	e.truncateEtas(0)
	e.refactors++
	e.nck = 0
	return nil
}

// refreshZ rebuilds the reduced-cost vector exactly: z = c − yᵀN with
// y = B⁻ᵀc_B from one BTRAN.
func (e *revised) refreshZ(cost []float64) {
	for pos := 0; pos < e.m; pos++ {
		e.rho[pos] = cost[e.basis[pos]]
	}
	e.btranVec(e.rho)
	rho := e.rho
	for j := 0; j < e.artOff; j++ {
		s := cost[j]
		rows, vals := e.mat.col(j)
		for q, i := range rows {
			s -= vals[q] * rho[i]
		}
		e.z[j] = s
	}
	for i := 0; i < e.m; i++ {
		e.z[e.artOff+i] = cost[e.artOff+i] - e.rho[i]
	}
	for _, v := range e.basis {
		e.z[v] = 0
	}
}

// run executes both phases and assembles the solution (cold path).
func (e *revised) run() (*Solution, error) {
	e.costI = growFloat(e.costI, e.total)
	costI := e.costI
	for j := 0; j < e.artOff; j++ {
		costI[j] = 0
	}
	for j := e.artOff; j < e.total; j++ {
		costI[j] = 1
	}
	st, err := e.optimize(costI)
	if err != nil {
		return nil, err
	}
	if st == Unbounded && e.phaseObjective(costI) > 1e-7 {
		// Phase I is bounded below by zero: a ray is a numerical artifact,
		// and with residual infeasibility no verdict can be certified.
		return nil, fmt.Errorf("lp: numerical failure: phase I reported unbounded at infeasibility %g",
			e.phaseObjective(costI))
	}
	e.phase1Iters = e.iters
	if e.phaseObjective(costI) > 1e-7 {
		return &Solution{Status: Infeasible, Iterations: e.iters}, nil
	}
	for j := e.artOff; j < e.total; j++ {
		e.upper[j] = 0
		e.lower[j] = 0
		if e.status[j] != basic {
			e.status[j] = atLower
			e.xN[j] = 0
		}
	}
	st, err = e.optimize(e.costII)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Iterations: e.iters}, nil
	}
	return e.assemble(), nil
}

// phaseObjective evaluates cᵀx at the current point.
func (e *revised) phaseObjective(cost []float64) float64 {
	var obj float64
	for j := 0; j < e.total; j++ {
		if cost[j] != 0 {
			obj += cost[j] * e.xN[j]
		}
	}
	return obj
}

// optimize runs the primal simplex loop for one phase. The z row is updated
// per pivot and rebuilt exactly every 200 pivots and before a ray is
// certified; a long stall switches pricing to Bland's rule.
func (e *revised) optimize(cost []float64) (Status, error) {
	e.refreshZ(cost)
	tol := e.opts.tol
	lastObj := math.Inf(1)
	sinceRefresh := 0
	for {
		if e.iters >= e.opts.maxIter {
			return 0, fmt.Errorf("%w (after %d pivots)", ErrIterLimit, e.iters)
		}
		if sinceRefresh >= 200 {
			e.refreshZ(cost)
			sinceRefresh = 0
		}
		j, dir := e.price(tol)
		if j < 0 {
			return Optimal, nil
		}
		unbounded, err := e.step(j, dir, tol)
		if err != nil {
			return 0, err
		}
		if unbounded {
			// A ray must survive exact reduced costs before we certify it.
			if sinceRefresh > 0 {
				e.refreshZ(cost)
				sinceRefresh = 0
				continue
			}
			return Unbounded, nil
		}
		e.iters++
		sinceRefresh++
		obj := e.phaseObjective(cost)
		if obj < lastObj-tol {
			lastObj = obj
			e.stall = 0
		} else {
			e.stall++
			if e.stall > e.m+e.total {
				e.bland = true
			}
		}
	}
}

// price selects an entering variable and movement direction (+1 increase,
// −1 decrease), or (-1, 0) at optimality.
func (e *revised) price(tol float64) (enter int, dir float64) {
	bestJ, bestScore, bestDir := -1, tol, 0.0
	for j := 0; j < e.total; j++ {
		st := e.status[j]
		if st == basic || e.upper[j]-e.lower[j] < tol && st != isFree {
			continue // basic, or fixed: can never move
		}
		zj := e.z[j]
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
		if e.bland {
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

// step performs the ratio test and either flips a bound, pivots (one FTRAN
// for the entering column, one BTRAN for the reduced-cost update, one eta
// term), or reports unboundedness.
func (e *revised) step(j int, dir, tol float64) (unbounded bool, err error) {
	e.ftranCol(j)
	span := e.upper[j] - e.lower[j]
	tMax := math.Inf(1)
	if !math.IsInf(span, 1) {
		tMax = span
	}
	leaveRow := -1
	leaveAtUpper := false
	for i := 0; i < e.m; i++ {
		alpha := e.col[i]
		if alpha == 0 {
			continue
		}
		delta := -dir * alpha
		b := e.basis[i]
		var t float64
		var hitsUpper bool
		switch {
		case delta > tol:
			ub := e.upper[b]
			if math.IsInf(ub, 1) {
				continue
			}
			t = (ub - e.xB[i]) / delta
			hitsUpper = true
		case delta < -tol:
			lb := e.lower[b]
			if math.IsInf(lb, -1) {
				continue
			}
			t = (lb - e.xB[i]) / delta
			hitsUpper = false
		default:
			continue
		}
		if t < -tol {
			t = 0
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
	enterVal := e.xN[j] + dir*tMax
	for i := 0; i < e.m; i++ {
		if alpha := e.col[i]; alpha != 0 {
			e.xB[i] -= dir * alpha * tMax
			e.xN[e.basis[i]] = e.xB[i]
		}
	}
	if leaveRow < 0 {
		// Bound flip: the entering variable traverses its whole span.
		e.boundFlips++
		if dir > 0 {
			e.place(j, atUpper)
		} else {
			e.place(j, atLower)
		}
		return false, nil
	}
	if tMax <= tol {
		e.degenPivots++
	}
	leaving := e.basis[leaveRow]
	if leaveAtUpper {
		e.place(leaving, atUpper)
	} else {
		e.place(leaving, atLower)
	}

	piv := e.col[leaveRow]
	if math.Abs(piv) < 1e-11 {
		return false, fmt.Errorf("lp: numerically zero pivot %g at row %d col %d", piv, leaveRow, j)
	}
	// Reduced-cost update needs the (pre-pivot) pivot row, priced by BTRAN.
	// The update divides by the row's own value of the pivot element, not
	// the FTRAN one, so the z vector stays internally consistent; if the
	// two sides of the basis disagree on that element, the eta file has
	// drifted and the basis is refactorized before trusting either.
	if zf := e.z[j]; zf != 0 {
		e.pivotRow(leaveRow)
		if !pivotsAgree(piv, e.arow[j]) {
			if err := e.refactor(); err != nil {
				return false, fmt.Errorf("lp: refactorizing basis: %w", err)
			}
			e.pivotRow(leaveRow)
			e.ftranCol(j)
			piv = e.col[leaveRow]
			if math.Abs(piv) < 1e-11 || !pivotsAgree(piv, e.arow[j]) {
				return false, fmt.Errorf("lp: unstable pivot %g/%g at row %d col %d", piv, e.arow[j], leaveRow, j)
			}
		}
		f := zf / e.arow[j]
		for k := 0; k < e.total; k++ {
			if a := e.arow[k]; a != 0 {
				e.z[k] -= f * a
			}
		}
	}
	e.z[j] = 0
	e.appendEta(leaveRow)
	e.basis[leaveRow] = j
	e.status[j] = basic
	e.xB[leaveRow] = enterVal
	e.xN[j] = enterVal
	if e.netas >= etaRefactorLimit {
		if err := e.refactor(); err != nil {
			return false, fmt.Errorf("lp: refactorizing basis: %w", err)
		}
	}
	return false, nil
}

// assemble builds the user-facing solution after a phase-II optimum in the
// workspace's solution storage. The artificial column of row i carries
// B⁻¹e_i, so the dual price is −z over it, with the row's setup sign flip
// undone.
func (e *revised) assemble() *Solution {
	sol := e.ws.solution(e.n, e.m)
	x, dual, rc := sol.X, sol.Dual, sol.ReducedCost
	copy(x, e.xN[:e.n])
	var obj float64
	for j := 0; j < e.n; j++ {
		obj += e.userC[j] * x[j]
	}
	sign := 1.0
	if e.maximize {
		sign = -1
	}
	for i := 0; i < e.m; i++ {
		y := -e.z[e.artOff+i]
		if e.mat.rhsFlip[i] {
			y = -y
		}
		dual[i] = sign * y
	}
	for j := 0; j < e.n; j++ {
		rc[j] = sign * e.z[j]
	}
	sol.Objective = obj
	sol.Iterations = e.iters
	return sol
}

// solve runs one solve: warm attempt first when a basis hint is present,
// cold two-phase otherwise (and after a warm attempt that certified
// nothing).
func solve(p *Problem, opts Options, stats *solveStats) (*Solution, error) {
	var (
		sol *Solution
		err error
		e   *revised
	)
	addStats := func(x *revised) {
		stats.iters += x.iters
		stats.degen += x.degenPivots
		stats.flips += x.boundFlips
		stats.dualPivs += x.dualPivots
		stats.ftran += x.ftran
		stats.btran += x.btran
		stats.etaApps += x.etaApps
		stats.refactors += x.refactors
	}
	if b := opts.WarmBasis; b != nil {
		stats.warmTried = true
		we, wsol := trySolveWarm(p, opts, b, stats)
		if we != nil {
			addStats(we)
		}
		if wsol != nil {
			sol, e, stats.warmUsed = wsol, we, true
		} else if we != nil {
			// Failed warm attempt: hand the engine's allocations back so the
			// cold fallback below reuses them (uncertified — the cold path
			// rebuilds the matrix and refactorizes regardless).
			opts.Workspace.retain(p, we, false)
		}
	}
	if sol == nil {
		ce, cerr := newRevised(p, opts)
		if cerr != nil {
			return nil, cerr
		}
		sol, err = ce.run()
		addStats(ce)
		stats.phase1 += ce.phase1Iters
		e = ce
	}
	if sol != nil && opts.CaptureBasis && sol.Status == Optimal {
		sol.Basis = captureBasis(e)
	}
	if err == nil && e != nil {
		// The workspace is the engine's home between solves; a
		// capture-enabled solve certifies its matrix and LU for reuse.
		opts.Workspace.retain(p, e, opts.CaptureBasis)
	}
	return sol, err
}
