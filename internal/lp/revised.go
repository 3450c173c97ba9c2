package lp

import (
	"fmt"
	"math"
	"sort"

	"github.com/edsec/edattack/internal/sparse"
)

// This file implements the sparse revised simplex engine. It follows the
// dense tableau solver's decision logic exactly — the same two phases, the
// same Dantzig pricing scan with Bland fallback, the same bound-flipping
// ratio tests, the same refresh cadence — but represents the basis inverse
// implicitly: the constraint matrix is stored once in compressed-column
// form, the basis is a sparse LU factorization (Markowitz pivoting, from
// internal/sparse), and each simplex pivot appends one product-form eta term
// instead of rewriting an m×total tableau. Entering columns come from FTRAN
// solves, pivot rows (for reduced-cost updates and dual pricing) from BTRAN
// solves. The eta file is folded back into a fresh LU factorization every
// etaRefactorLimit pivots, bounding both solve cost and drift.
//
// Warm starts skip the tableau-driving pivots of the dense path entirely:
// the warm basis seeds the initial LU factorization directly (or reuses the
// cached factorization when the basis is unchanged since the last capture),
// and the same dual-simplex/certification flow as the dense engine runs on
// top.

// etaRefactorLimit is the eta-file length at which the basis is
// refactorized. Each FTRAN/BTRAN applies every eta term, so long files make
// solves linear in pivot history; 64 keeps the product form short while
// amortizing the Markowitz factorization over many pivots.
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
// compressed-column form (artificial columns are an implicit identity). Row
// sign flips mirror the dense engine's setup so both engines solve the same
// internal problem. The matrix is immutable after construction and is
// retained across warm solves with the engine cache.
type rmatrix struct {
	m, n, nslack, total, artOff int

	colPtr []int // len artOff+1: structural then slack columns
	rowInd []int
	colVal []float64

	rhsFlip []bool
	rhs     []float64 // sign-flipped RHS per row
}

// buildRMatrixInto compresses the problem's rows into column form in mt's
// existing arrays (grown as needed; a nil mt starts fresh), with build
// temporaries drawn from ws. Row sign flips are chosen exactly like the
// dense engine does at tableau setup, so a cold sparse solve and a cold
// dense solve start from identical internal data.
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
	// zero), needed only to reproduce the dense engine's flip decision.
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

// revised is the working state of one sparse revised-simplex solve. Basis
// positions (the LU's column order) play the role the tableau engine's rows
// play: xB, the eta file, and FTRAN outputs are indexed by position.
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

	lu *sparse.LU
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

	// ws is the workspace this engine draws factorization scratch and
	// solution buffers from (and is retained on between solves).
	ws *Workspace

	// Per-engine reusable scratch: phase-I cost vector, refactorization
	// column pointers, unit artificial columns (artRow[i:i+1]/artOne[i:i+1]
	// is column i of the identity), and the dual ratio-test candidate and
	// flip lists with their sorter.
	costI      []float64
	refInd     [][]int
	refVal     [][]float64
	artRow     []int
	artOne     []float64
	cands      []dualCand
	flips      []int
	candSorter dualCandSorter
}

// dualCandSorter orders dual ratio-test candidates by (ratio asc, |alpha|
// desc, j asc) — a strict total order (j is unique), so the sorted sequence
// is independent of the sort algorithm; the pointer receiver keeps sort.Sort
// allocation-free.
type dualCandSorter struct{ c []dualCand }

func (s *dualCandSorter) Len() int { return len(s.c) }
func (s *dualCandSorter) Less(a, b int) bool {
	ca, cb := s.c[a], s.c[b]
	if ca.ratio != cb.ratio {
		return ca.ratio < cb.ratio
	}
	aa, ab := math.Abs(ca.alpha), math.Abs(cb.alpha)
	if aa != ab {
		return aa > ab
	}
	return ca.j < cb.j
}
func (s *dualCandSorter) Swap(a, b int) { s.c[a], s.c[b] = s.c[b], s.c[a] }

// newRevised builds a cold-start engine: matrix rebuilt from the problem's
// current state, artificial basis, identity LU. The workspace's retained
// engine lends its allocations; the matrix is still rebuilt so a cold solve
// never depends on retained state (bound edits change the flip pattern
// without bumping rev).
func newRevised(p *Problem, opts Options) (*revised, error) {
	e := opts.Workspace.engine()
	e.reinit(p, opts)

	// Initial nonbasic placement, exactly as the dense engine.
	for j := 0; j < e.total; j++ {
		switch {
		case !math.IsInf(e.lower[j], -1):
			e.status[j] = atLower
			e.xN[j] = e.lower[j]
		case !math.IsInf(e.upper[j], 1):
			e.status[j] = atUpper
			e.xN[j] = e.upper[j]
		default:
			e.status[j] = isFree
			e.xN[j] = 0
		}
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
			for q := e.mat.colPtr[j]; q < e.mat.colPtr[j+1]; q++ {
				v[e.mat.rowInd[q]] -= e.mat.colVal[q] * x
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
	if cap(e.etaPtr) < etaRefactorLimit+1 {
		e.etaPtr = make([]int, 1, etaRefactorLimit+1)
	} else {
		e.etaPtr = e.etaPtr[:1]
	}
	e.etaPtr[0] = 0
	e.etaPos = e.etaPos[:0]
	e.etaVal = e.etaVal[:0]
	e.etaPiv = e.etaPiv[:0]
	e.etaDiag = e.etaDiag[:0]
	e.netas = 0
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
	e.iters, e.phase1Iters, e.degenPivots, e.boundFlips, e.dualPivots = 0, 0, 0, 0, 0
	e.ftran, e.btran, e.etaApps, e.refactors = 0, 0, 0, 0
	e.bland, e.stall = false, 0
	e.cacheRev = 0
	e.loadBoundsAndCost(p)
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
	mt := e.mat
	for q := mt.colPtr[j]; q < mt.colPtr[j+1]; q++ {
		out[mt.rowInd[q]] += mt.colVal[q]
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
	mt := e.mat
	return mt.rowInd[mt.colPtr[j]:mt.colPtr[j+1]], mt.colVal[mt.colPtr[j]:mt.colPtr[j+1]]
}

// ftranVec solves B·x = v in place: v enters in row space, leaves as the
// basic-position representation x = B⁻¹v.
func (e *revised) ftranVec(v []float64) {
	e.lu.Solve(v)
	for k := 0; k < e.netas; k++ {
		r := e.etaPiv[k]
		t := v[r] / e.etaDiag[k]
		if t != 0 {
			for q := e.etaPtr[k]; q < e.etaPtr[k+1]; q++ {
				v[e.etaPos[q]] -= e.etaVal[q] * t
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
		for q := e.etaPtr[k]; q < e.etaPtr[k+1]; q++ {
			s -= e.etaVal[q] * w[e.etaPos[q]]
		}
		w[r] = s / e.etaDiag[k]
	}
	e.lu.SolveT(w)
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
	mt := e.mat
	for j := 0; j < e.artOff; j++ {
		var s float64
		for q := mt.colPtr[j]; q < mt.colPtr[j+1]; q++ {
			s += mt.colVal[q] * e.rho[mt.rowInd[q]]
		}
		e.arow[j] = s
	}
	for i := 0; i < e.m; i++ {
		e.arow[e.artOff+i] = e.rho[i]
	}
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

// refactor rebuilds the LU from the current basis columns and clears the
// eta file. The column-pointer tables live on the engine and the Markowitz
// working set (plus the retired LU's arrays) on the workspace, so steady-
// state refactorizations allocate nothing.
func (e *revised) refactor() error {
	if cap(e.refInd) < e.m {
		e.refInd = make([][]int, e.m)
		e.refVal = make([][]float64, e.m)
	}
	ind := e.refInd[:e.m]
	val := e.refVal[:e.m]
	for pos, v := range e.basis {
		ind[pos], val[pos] = e.colEntries(v)
	}
	fs := &e.ws.fact
	lu, err := sparse.FactorColumnsWith(e.m, ind, val, fs)
	if err != nil {
		return err
	}
	// Recycle only after success: a failed factorization must leave the
	// current LU untouched (callers may keep pivoting on it or report).
	if e.lu != nil {
		fs.Recycle(e.lu)
	}
	e.lu = lu
	e.etaPtr = e.etaPtr[:1]
	e.etaPos = e.etaPos[:0]
	e.etaVal = e.etaVal[:0]
	e.etaPiv = e.etaPiv[:0]
	e.etaDiag = e.etaDiag[:0]
	e.netas = 0
	e.refactors++
	return nil
}

// refreshZ rebuilds the reduced-cost vector exactly: z = c − yᵀN with
// y = B⁻ᵀc_B from one BTRAN.
func (e *revised) refreshZ(cost []float64) {
	for pos := 0; pos < e.m; pos++ {
		e.rho[pos] = cost[e.basis[pos]]
	}
	e.btranVec(e.rho)
	mt := e.mat
	for j := 0; j < e.artOff; j++ {
		s := cost[j]
		for q := mt.colPtr[j]; q < mt.colPtr[j+1]; q++ {
			s -= mt.colVal[q] * e.rho[mt.rowInd[q]]
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

// optimize runs the primal simplex loop for one phase — the same loop as the
// dense engine, with FTRAN/BTRAN replacing tableau row access.
func (e *revised) optimize(cost []float64) (Status, error) {
	e.refreshZ(cost)
	tol := e.opts.Tol
	lastObj := math.Inf(1)
	sinceRefresh := 0
	for {
		if e.iters >= e.opts.MaxIter {
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

// price selects an entering variable and direction — identical logic to the
// dense engine's pricing scan.
func (e *revised) price(tol float64) (enter int, dir float64) {
	bestJ, bestScore, bestDir := -1, tol, 0.0
	for j := 0; j < e.total; j++ {
		st := e.status[j]
		if st == basic {
			continue
		}
		if e.upper[j]-e.lower[j] < tol && st != isFree {
			continue
		}
		zj := e.z[j]
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
	if leaveRow < 0 {
		// Bound flip: the entering variable traverses its whole span.
		e.boundFlips++
		for i := 0; i < e.m; i++ {
			alpha := e.col[i]
			if alpha == 0 {
				continue
			}
			e.xB[i] -= dir * alpha * tMax
			e.xN[e.basis[i]] = e.xB[i]
		}
		if dir > 0 {
			e.status[j] = atUpper
			e.xN[j] = e.upper[j]
		} else {
			e.status[j] = atLower
			e.xN[j] = e.lower[j]
		}
		return false, nil
	}

	if tMax <= tol {
		e.degenPivots++
	}
	enterVal := e.xN[j] + dir*tMax
	for i := 0; i < e.m; i++ {
		alpha := e.col[i]
		if alpha == 0 {
			continue
		}
		e.xB[i] -= dir * alpha * tMax
		e.xN[e.basis[i]] = e.xB[i]
	}
	leaving := e.basis[leaveRow]
	if leaveAtUpper {
		e.status[leaving] = atUpper
		e.xN[leaving] = e.upper[leaving]
	} else {
		e.status[leaving] = atLower
		e.xN[leaving] = e.lower[leaving]
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
// workspace's solution storage, with the same dual extraction as the dense
// engine (the artificial column of row i carries B⁻¹e_i).
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

// captureBasisRevised snapshots the final basis of a solved engine.
func captureBasisRevised(e *revised) *Basis {
	st := make([]varStatus, len(e.status))
	copy(st, e.status)
	return &Basis{nvars: e.n, nrows: e.m, nslack: e.nslack, status: st}
}

// solveSparse runs the sparse engine: warm attempt first when a basis hint
// is present, cold two-phase otherwise — mirroring solveDense.
func solveSparse(p *Problem, opts Options, stats *solveStats) (*Solution, error) {
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
		we, wsol := trySolveWarmSparse(p, opts, b)
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
		if cerr == nil {
			addStats(ce)
			stats.phase1 += ce.phase1Iters
		}
		e = ce
	}
	if sol != nil && opts.CaptureBasis && sol.Status == Optimal {
		sol.Basis = captureBasisRevised(e)
	}
	if err == nil && e != nil {
		// The workspace is the engine's home between solves; a
		// capture-enabled solve certifies its matrix and LU for reuse.
		opts.Workspace.retain(p, e, opts.CaptureBasis)
	}
	return sol, err
}

// trySolveWarmSparse attempts a warm-started sparse solve from basis b: the
// warm basis seeds the LU factorization directly (reusing the cached
// factorization when the basis set is unchanged), then the bound-flipping
// dual simplex restores primal feasibility and the exact phase-II pass
// certifies. A nil Solution means the caller must cold-solve; the returned
// engine (when non-nil) carries the attempt's counters either way.
func trySolveWarmSparse(p *Problem, opts Options, b *Basis) (*revised, *Solution) {
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
	// are reusable only when certified for p's current state and shape.
	luValid := ws.eng != nil && ws.engProb == p && ws.eng.cacheRev == p.rev &&
		ws.eng.m == m && ws.eng.n == n && ws.eng.nslack == nslack
	e := ws.engine()
	if luValid {
		e.opts = opts
		e.maximize, e.userC = p.maximize, p.c
		e.loadBoundsAndCost(p)
		// Reuse the retained factorization only when the wanted basis is
		// exactly the one it factors (the branch-and-bound fast path:
		// the child's warm basis is the parent's final basis).
		if !sameBasisSet(e, e.basis, wanted) {
			copy(e.basis, wanted)
			if err := e.refactor(); err != nil {
				return e, nil
			}
		}
	} else {
		e.reinit(p, opts)
		copy(e.basis, wanted)
		if err := e.refactor(); err != nil {
			return e, nil
		}
	}
	e.iters, e.phase1Iters, e.degenPivots, e.boundFlips, e.dualPivots = 0, 0, 0, 0, 0
	e.ftran, e.btran, e.etaApps, e.refactors = 0, 0, 0, 0
	e.bland, e.stall = false, 0
	e.warmRestore(b)
	if e.warmDualFeasible() {
		if !e.dualSimplex() {
			return e, nil
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

// sameBasisSet reports whether cur (in position order) and wanted (sorted
// ascending) contain the same variables, sorting in e's workspace scratch.
func sameBasisSet(e *revised, cur, wanted []int) bool {
	if len(cur) != len(wanted) {
		return false
	}
	e.ws.tmp = growInt(e.ws.tmp, len(cur))
	tmp := e.ws.tmp
	copy(tmp, cur)
	sort.Ints(tmp)
	for i, v := range tmp {
		if v != wanted[i] {
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
	for j := 0; j < e.total; j++ {
		st := b.status[j]
		lo, hi := e.lower[j], e.upper[j]
		switch {
		case st == basic:
			// placed below, once values are known
		case st == atUpper && !isPosInf(hi):
			e.status[j], e.xN[j] = atUpper, hi
		case st == isFree && isNegInf(lo) && isPosInf(hi):
			e.status[j], e.xN[j] = isFree, 0
		case !isNegInf(lo):
			e.status[j], e.xN[j] = atLower, lo
		case !isPosInf(hi):
			e.status[j], e.xN[j] = atUpper, hi
		default:
			e.status[j], e.xN[j] = isFree, 0
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
		for q := e.mat.colPtr[j]; q < e.mat.colPtr[j+1]; q++ {
			v[e.mat.rowInd[q]] -= e.mat.colVal[q] * x
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

// warmDualFeasible mirrors the dense engine's routing test: scaled reduced-
// cost signs decide between the dual simplex and a primal certify pass.
func (e *revised) warmDualFeasible() bool {
	maxC := 0.0
	for _, c := range e.costII {
		if a := math.Abs(c); a > maxC {
			maxC = a
		}
	}
	dtol := e.opts.Tol * (1 + maxC)
	for j := 0; j < e.total; j++ {
		st := e.status[j]
		if st == basic {
			continue
		}
		if st != isFree && e.upper[j]-e.lower[j] < e.opts.Tol {
			continue
		}
		zj := e.z[j]
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

// warmPrimalFeasible reports whether every basic value sits within bounds.
func (e *revised) warmPrimalFeasible() bool {
	tol := e.opts.Tol
	for i := 0; i < e.m; i++ {
		v := e.basis[i]
		if e.xB[i] < e.lower[v]-tol || e.xB[i] > e.upper[v]+tol {
			return false
		}
	}
	return true
}

// dualSimplex runs bound-flipping dual pivots until every basic variable is
// back inside its bounds — the revised-form twin of the dense engine's dual
// simplex: the leaving row is priced with one BTRAN, accumulated bound flips
// cost one FTRAN, and the entering column one more.
func (e *revised) dualSimplex() bool {
	tol := e.opts.Tol
	sinceRefresh := 0
	cands := e.cands
	flips := e.flips
	defer func() {
		e.cands = cands[:0]
		e.flips = flips[:0]
	}()
	for {
		if e.iters >= e.opts.MaxIter {
			return false
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
			return true // primal feasible
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
			if a > -tol && a < tol {
				continue
			}
			var ok bool
			var ratio float64
			switch st {
			case atLower:
				if needUp {
					ok = a < 0
				} else {
					ok = a > 0
				}
				ratio = e.z[j] / math.Abs(a)
			case atUpper:
				if needUp {
					ok = a > 0
				} else {
					ok = a < 0
				}
				ratio = -e.z[j] / math.Abs(a)
			case isFree:
				ok = true
				ratio = math.Abs(e.z[j]) / math.Abs(a)
			}
			if !ok {
				continue
			}
			if ratio < 0 {
				ratio = 0
			}
			cands = append(cands, dualCand{j: j, alpha: a, ratio: ratio, span: span})
		}
		if len(cands) == 0 {
			return false // dual certificate of primal infeasibility
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
			e.candSorter.c = cands
			sort.Sort(&e.candSorter)
			e.candSorter.c = nil
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
				for q := e.mat.colPtr[j]; q < e.mat.colPtr[j+1]; q++ {
					e.dv[e.mat.rowInd[q]] += e.mat.colVal[q] * delta
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
				return false
			}
			e.pivotRow(r)
			e.ftranCol(j)
			piv = e.col[r]
			c.alpha = e.arow[j]
			if !pivotsAgree(piv, c.alpha) {
				return false
			}
		}
		if math.Abs(piv) < 1e-11 {
			return false
		}
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
				return false
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
