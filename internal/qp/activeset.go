package qp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/sparse"
)

// activeSet runs the primal (run) or dual (runDual) active-set iteration.
// It lives in a workspace's qpScratch between solves: attach resets every
// per-solve field and keeps the buffers.
type activeSet struct {
	p    *Problem
	x    []float64
	opts Options

	// Bordered sparse KKT machinery; nil when the base matrix is singular
	// (or the dense oracle runs), in which case every KKT solve takes the
	// uncached dense path.
	schur      *kktSchur
	schurTried bool

	// Memoized last successful solve: the KKT solution depends only on the
	// working set (the iterate moves neither the matrix nor the right-hand
	// side), and run() solves each candidate set twice — once probing
	// independence in tryKKT, once for the step in the next iteration — so
	// remembering the last result halves the work. memoOK gates validity so
	// the memo buffers themselves can persist across solves.
	memoOK bool

	activeBuffers

	// Work counters: KKT systems solved and factorizations computed (sparse
	// base, Schur complement, dense fallback KKT), reported once per solve.
	kktSolves, kktFactors int
}

// activeBuffers are the active-set iteration's reusable buffers. Every user
// sizes a buffer (grow, cloneInto, append onto [:0]) before reading it, so
// content left by an earlier solve is never observed; only work, which the
// iteration appends to, is truncated per solve.
type activeBuffers struct {
	work []int // side positions (see Problem.side) forming the working set

	// w0 = B⁻¹·[−c; beq] and the per-row dots ĝ_wᵀ·w0 (NaN until
	// computed), per solve (the objective and right-hand sides may differ
	// between cached solves).
	w0  []float64
	rw0 []float64
	// cands are the dual method's pricing candidates: the hinted sides and
	// the sides found violated during the solve.
	cands []int
	// act holds gᵀx per user row, as of the last full pricing scan.
	act []float64

	// The memoized solve (valid while activeSet.memoOK).
	memoWork []int
	memoX    []float64
	memoNu   []float64
	memoLam  []float64

	// The bordered KKT solution vector, KKT or Schur right-hand side, memo
	// hand-out copies, step direction, and candidate working set. A KKT
	// solution handed out from uBuf/ret*/lamBuf is valid until the next
	// solveKKT call, which is how both methods consume it.
	uBuf   []float64
	rhsBuf []float64
	retX   []float64
	retNu  []float64
	retLam []float64
	dBuf   []float64
	cand   []int

	// lamBuf holds the working-set multipliers of a bordered KKT solve, and
	// schurMat the Schur complement schurFactor factors.
	lamBuf   []float64
	schurMat *mat.Matrix
	// The dual method's state — the iterate and its multipliers, copied
	// from the KKT solve of the working set — and its step direction.
	xBuf, nuBuf, wlamBuf []float64
	dirBuf, dirLam       []float64
}

// KKTCache carries factorization work reusable across solves of structurally
// identical QPs: same Hessian, same equality rows, and the same gradient
// behind every inequality row index. Objective vectors and all right-hand
// sides — beq, inequality row sides, bound values, open or not — may differ
// freely between solves; those enter only through per-solve vectors. A
// change in the number of variables, equality rows, or inequality rows
// resets the cache. The canonical client is repeated economic dispatch under
// varying line ratings, where every KKT matrix is drawn from one fixed
// family.
//
// It holds the bordered factorization (kktSchur): the base LU, border
// columns, Schur entries, and Schur factors. A cached factor is the one a
// fresh factorization of the same matrix computes, so results never depend
// on what the cache holds.
//
// The zero value is ready to use. A KKTCache is not safe for concurrent use;
// per-worker model clones must each own one.
type KKTCache struct {
	n, me, sides int
	tried        bool
	sc           *kktSchur

	// Whether the n-variable Hessian is positive definite (selecting the
	// dual method), once pdKnown.
	pdN         int
	pdKnown, pd bool

	// metrics holds the instruments of the registry the last solve fed.
	metrics solveMetrics
}

// kktSchur solves working-set KKT systems by bordering: the base matrix
//
//	B = ⎡H  Aeqᵀ⎤
//	    ⎣Aeq  0 ⎦
//
// is fixed for the whole active-set run and factorized sparsely once; a
// working set {w₁…w_mw} extends it with border columns ĝ_w (the row
// gradients, zero-padded over the equality block). The bordered system
//
//	⎡B  G⎤ ⎡u⎤ = ⎡r⎤        G = [ĝ_w₁ … ĝ_w_mw]
//	⎣Gᵀ 0⎦ ⎣λ⎦   ⎣h⎦
//
// reduces to the mw×mw dense Schur complement S = GᵀB⁻¹G:
//
//	S·λ = GᵀB⁻¹r − h,   u = B⁻¹r − (B⁻¹G)·λ
//
// B⁻¹ĝ_w is cached per row position, every Schur entry ĝ_vᵀB⁻¹ĝ_w per
// position pair, and Schur factorizations per working set — all of which
// depend only on the gradients, so with a cross-solve KKTCache a
// steady-state KKT solve costs one small triangular solve instead of the
// dense (n+me+mw)³ factorization it replaced.
type kktSchur struct {
	dim0 int        // n + me
	base *sparse.LU // factorization of B

	cols    [][]float64 // row position → B⁻¹·ĝ_w, nil until computed
	dots    [][]float64 // position v → ĝ_vᵀ·B⁻¹·ĝ_w by position w, NaN until computed
	factors schurCache  // working set → Schur factorization, or singular
}

// run iterates: solve the equality-constrained QP on the working set, then
// either take a (possibly blocked) step, drop a constraint with a negative
// multiplier, or declare optimality.
func (s *activeSet) run(dst *Solution) error {
	tol := s.opts.tol
	// Seed the working set with constraints active at the start point.
	for i := 0; i < s.p.numSides(); i++ {
		if len(s.work) >= s.p.n-len(s.p.aeq) {
			break // keep the working set small enough for independence
		}
		if r := s.p.side(i); !r.open() && r.h-r.dot(s.x) < tol {
			cand := append(append(s.cand[:0], s.work...), i)
			s.cand = cand
			if s.tryKKT(cand) {
				s.work = append(s.work, i)
			}
		}
	}
	for iter := 0; iter < s.opts.maxIter; iter++ {
		xStar, nu, lam, err := s.solveKKT(s.work)
		if err != nil {
			// Dependent working set: drop the newest row and retry.
			if len(s.work) == 0 {
				return fmt.Errorf("qp: KKT solve failed with empty working set: %w", err)
			}
			s.work = s.work[:len(s.work)-1]
			continue
		}
		d := growFloat(s.dBuf, len(s.x))
		s.dBuf = d
		for j := range d {
			d[j] = xStar[j] - s.x[j]
		}
		if mat.NormInf(d) < tol {
			// Candidate optimum: check multiplier signs.
			minIdx, minVal := -1, -tol
			for k := range s.work {
				if lam[k] < minVal {
					minVal, minIdx = lam[k], k
				}
			}
			if minIdx < 0 {
				s.activities()
				s.assemble(dst, nu, lam)
				dst.Iterations = iter + 1
				return nil
			}
			s.work = append(s.work[:minIdx], s.work[minIdx+1:]...)
			continue
		}
		// Ratio test against rows not in the working set.
		alpha, blocking := 1.0, -1
		for i := 0; i < s.p.numSides(); i++ {
			r := s.p.side(i)
			if r.open() || slices.Contains(s.work, i) {
				continue
			}
			gd := r.dot(d)
			if gd <= tol {
				continue
			}
			slack := r.h - r.dot(s.x)
			if slack < 0 {
				slack = 0
			}
			if a := slack / gd; a < alpha {
				alpha, blocking = a, i
			}
		}
		for j := range s.x {
			s.x[j] += alpha * d[j]
		}
		if blocking >= 0 {
			cand := append(append(s.cand[:0], s.work...), blocking)
			s.cand = cand
			if s.tryKKT(cand) {
				s.work = append(s.work, blocking)
			} else if len(s.work) > 0 {
				// The blocking gradient is dependent on the working
				// set; make room by dropping the oldest row.
				s.work = s.work[1:]
			}
		}
	}
	return fmt.Errorf("%w (after %d iterations)", ErrIterLimit, s.opts.maxIter)
}

// tryKKT reports whether the KKT matrix for the given working set is
// nonsingular.
func (s *activeSet) tryKKT(work []int) bool {
	_, _, _, err := s.solveKKT(work)
	return err == nil
}

// solveKKT solves the equality-constrained QP
//
//	min ½xᵀHx + cᵀx   s.t.  Aeq·x = beq,  rows[w]·x = h[w] for w ∈ work
//
// returning the minimizer and the multipliers (ν for equalities, λ for
// working-set rows).
func (s *activeSet) solveKKT(work []int) (x, nu, lam []float64, err error) {
	s.kktSolves++
	if s.bordered() {
		return s.solveKKTSchur(work)
	}
	n := s.p.n
	me := len(s.p.aeq)
	rhs := growFloat(s.rhsBuf, n+me+len(work))
	s.rhsBuf = rhs
	for i := 0; i < n; i++ {
		rhs[i] = -s.p.c[i]
	}
	for e := 0; e < me; e++ {
		rhs[n+e] = s.p.beq[e]
	}
	for k, w := range work {
		rhs[n+me+k] = s.p.side(w).h
	}
	u, err := s.solveDense(work, rhs)
	if err != nil {
		return nil, nil, nil, err
	}
	return u[:n], u[n : n+me], u[n+me:], nil
}

// bordered reports whether this solve's KKT systems take the bordered
// Schur path, deciding it on first use.
func (s *activeSet) bordered() bool {
	if s.opts.denseKKT {
		return false
	}
	if !s.schurTried {
		s.initSchur()
	}
	return s.schur != nil
}

// initSchur factors the base KKT matrix sparsely once per solve (or adopts
// the caller's KKTCache's factorization) and computes B⁻¹r for this solve's
// right-hand side.
func (s *activeSet) initSchur() {
	s.schurTried = true
	n := s.p.n
	me := len(s.p.aeq)
	cache := s.opts.Cache
	if cache != nil && cache.tried && cache.n == n && cache.me == me && cache.sides == s.p.numSides() {
		if cache.sc != nil {
			s.schur = cache.sc
			s.initW0()
		}
		return
	}
	sc := s.buildSchur()
	if cache != nil {
		cache.n, cache.me, cache.sides, cache.tried, cache.sc = n, me, s.p.numSides(), true, sc
	}
	if sc != nil {
		s.schur = sc
		s.initW0()
	}
}

// buildSchur assembles and factors the base matrix B sparsely, returning nil
// when it is singular (H not positive definite on the equality null space),
// in which case the bordered reduction does not apply.
func (s *activeSet) buildSchur() *kktSchur {
	n := s.p.n
	me := len(s.p.aeq)
	dim0 := n + me
	ind := make([][]int, dim0)
	val := make([][]float64, dim0)
	for j := 0; j < n; j++ {
		var rs []int
		var vs []float64
		for i := 0; i < n; i++ {
			if v := s.p.h.At(i, j); v != 0 {
				rs = append(rs, i)
				vs = append(vs, v)
			}
		}
		for e := 0; e < me; e++ {
			if v := s.p.aeq[e][j]; v != 0 {
				rs = append(rs, n+e)
				vs = append(vs, v)
			}
		}
		ind[j], val[j] = rs, vs
	}
	for e := 0; e < me; e++ {
		var rs []int
		var vs []float64
		for j, v := range s.p.aeq[e] {
			if v != 0 {
				rs = append(rs, j)
				vs = append(vs, v)
			}
		}
		ind[n+e], val[n+e] = rs, vs
	}
	s.kktFactors++
	base, err := sparse.FactorColumns(dim0, ind, val)
	if err != nil {
		return nil
	}
	return &kktSchur{
		dim0:    dim0,
		base:    base,
		cols:    make([][]float64, s.p.numSides()),
		dots:    make([][]float64, s.p.numSides()),
		factors: newSchurCache(s.p.numSides()),
	}
}

// initW0 computes this solve's B⁻¹·[−c; beq] and resets the per-solve
// right-hand-side dot cache.
func (s *activeSet) initW0() {
	n := s.p.n
	w0 := growFloat(s.w0, s.schur.dim0)
	for i := 0; i < n; i++ {
		w0[i] = -s.p.c[i]
	}
	for e := 0; e < len(s.p.aeq); e++ {
		w0[n+e] = s.p.beq[e]
	}
	s.schur.base.Solve(w0)
	s.w0 = w0
	s.rw0 = growFloat(s.rw0, s.p.numSides())
	for i := range s.rw0 {
		s.rw0[i] = math.NaN()
	}
}

// borderCol returns B⁻¹·ĝ_w, computing and caching it on first use. The
// cache never invalidates: B and the gradient behind a position are fixed
// for the cache's lifetime.
func (s *activeSet) borderCol(w int) []float64 {
	if c := s.schur.cols[w]; c != nil {
		return c
	}
	r := s.p.side(w)
	v := make([]float64, s.schur.dim0)
	if r.g != nil {
		for j, g := range r.g {
			v[j] = r.sign * g
		}
	} else {
		v[r.idx] = r.sign
	}
	s.schur.base.Solve(v)
	s.schur.cols[w] = v
	return v
}

// pairDot returns ĝ_vᵀ·B⁻¹·ĝ_w, cached under both position orders. The
// base is symmetric, so the dot is too; computing it in one canonical
// orientation (see dotOrder) makes the cached value — and hence the Schur
// matrix — exactly symmetric.
func (s *activeSet) pairDot(wi, wj int) float64 {
	if v := s.dotRow(wi)[wj]; !math.IsNaN(v) {
		return v
	}
	a, b := wi, wj
	if s.dotOrder(a) > s.dotOrder(b) {
		a, b = b, a
	}
	r := s.p.side(a)
	v := rowDot(&r, s.borderCol(b))
	s.dotRow(wi)[wj], s.dotRow(wj)[wi] = v, v
	return v
}

// dotRow returns row w's cached Schur dots, allocating it (NaN, not yet
// computed) on first use.
func (s *activeSet) dotRow(w int) []float64 {
	dots := s.schur.dots[w]
	if dots == nil {
		dots = make([]float64, s.p.numSides())
		for i := range dots {
			dots[i] = math.NaN()
		}
		s.schur.dots[w] = dots
	}
	return dots
}

// dotOrder ranks row positions for pairDot's orientation: 4p for the user
// side at position p, 4j+1 and 4j+2 for the upper and lower bound sides of
// variable j. Any fixed order keeps the Schur matrix symmetric; this one
// interleaves bounds with user rows as dispatch results have always been
// computed, so they stay bit-identical.
func (s *activeSet) dotOrder(w int) int {
	if u := 2 * len(s.p.gin); w >= u {
		return 4*((w-u)/2) + 1 + (w-u)%2
	}
	return 4 * w
}

// rhsDot returns ĝ_wᵀ·w0, cached per row for this solve.
func (s *activeSet) rhsDot(w int) float64 {
	if v := s.rw0[w]; !math.IsNaN(v) {
		return v
	}
	r := s.p.side(w)
	s.rw0[w] = rowDot(&r, s.w0)
	return s.rw0[w]
}

// rowDot is ĝ_wᵀ·v for a vector over the base dimension (the gradient is
// zero over the equality block). The sign multiplies each term, so a lower
// side's dot is bit for bit that of a row holding the negated gradient.
func rowDot(r *ineqRow, v []float64) float64 {
	if r.g == nil {
		return r.sign * v[r.idx]
	}
	d := 0.0
	for j, g := range r.g {
		if g != 0 {
			d += r.sign * g * v[j]
		}
	}
	return d
}

// solveKKTSchur solves the working-set KKT system through the bordered
// reduction. A singular Schur complement means the working-set gradients
// are dependent (given the nonsingular base), exactly the condition the
// dense path reports as ErrSingular.
func (s *activeSet) solveKKTSchur(work []int) (x, nu, lam []float64, err error) {
	// Order matters: it fixes the multiplier rows.
	if s.memoOK && slices.Equal(s.memoWork, work) {
		s.retX = cloneInto(s.retX, s.memoX)
		s.retNu = cloneInto(s.retNu, s.memoNu)
		s.retLam = cloneInto(s.retLam, s.memoLam)
		return s.retX, s.retNu, s.retLam, nil
	}
	n := s.p.n
	u := cloneInto(s.uBuf, s.w0)
	s.uBuf = u
	var lmb []float64
	if len(work) > 0 {
		f, err := s.schurFactor(work)
		if err != nil {
			return nil, nil, nil, err
		}
		rhs := growFloat(s.rhsBuf, len(work))
		s.rhsBuf = rhs
		for i, w := range work {
			rhs[i] = s.rhsDot(w) - s.p.side(w).h
		}
		if lmb, err = f.SolveInto(s.lamBuf, rhs); err != nil {
			return nil, nil, nil, err
		}
		s.lamBuf = lmb
		s.subtractBorder(u, work, lmb)
	}
	s.memoWork = append(s.memoWork[:0], work...)
	s.memoX = cloneInto(s.memoX, u[:n])
	s.memoNu = cloneInto(s.memoNu, u[n:])
	s.memoLam = cloneInto(s.memoLam, lmb)
	s.memoOK = true
	return u[:n], u[n:], lmb, nil
}

// schurFactor returns the factorization of the working set's Schur
// complement S = GᵀB⁻¹G, computing and caching it on first use. A singular
// S (dependent gradients) is remembered and reported as mat.ErrSingular.
func (s *activeSet) schurFactor(work []int) (*mat.LU, error) {
	c := &s.schur.factors
	switch f, state := c.get(work); state {
	case entryFactor:
		return f, nil
	case entrySingular:
		return nil, mat.ErrSingular
	}
	mw := len(work)
	sc := mat.Resize(s.schurMat, mw, mw)
	s.schurMat = sc
	for i := range work {
		for j := i; j < mw; j++ {
			d := s.pairDot(work[i], work[j])
			sc.Set(i, j, d)
			sc.Set(j, i, d)
		}
	}
	s.kktFactors++
	f, err := mat.Factor(sc)
	if err != nil {
		// A dependent set stays dependent: the Schur entries are fixed for
		// the cache's lifetime.
		c.put(work, entrySingular, nil)
		return nil, err
	}
	c.put(work, entryFactor, f)
	return f, nil
}

// subtractBorder subtracts (B⁻¹G)·λ from u: u −= Σᵢ λᵢ·B⁻¹ĝ_wᵢ.
func (s *activeSet) subtractBorder(u []float64, work []int, lmb []float64) {
	for i, w := range work {
		li := lmb[i]
		if li == 0 {
			continue
		}
		ci := s.borderCol(w)
		for t := range u {
			u[t] -= li * ci[t]
		}
	}
}

// solveDense assembles and factors the working set's dense KKT system
// K(W)·u = rhs afresh: the fallback when the base matrix is singular, and
// the bordered path's differential oracle.
func (s *activeSet) solveDense(work []int, rhs []float64) ([]float64, error) {
	kkt := mat.New(len(rhs), len(rhs))
	s.fillKKT(kkt, work)
	s.kktFactors++
	u, err := mat.Solve(kkt, rhs)
	if err != nil {
		return nil, kktError(err)
	}
	return u, nil
}

// kktError passes a singular-KKT error through (run() treats it as a
// dependent working set) and wraps anything else.
func kktError(err error) error {
	if errors.Is(err, mat.ErrSingular) {
		return err
	}
	return fmt.Errorf("qp: KKT solve: %w", err)
}

// fillKKT writes the working set's KKT matrix into the zeroed kkt.
func (s *activeSet) fillKKT(kkt *mat.Matrix, work []int) {
	n := s.p.n
	me := len(s.p.aeq)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kkt.Set(i, j, s.p.h.At(i, j))
		}
	}
	for e := 0; e < me; e++ {
		for j, v := range s.p.aeq[e] {
			kkt.Set(n+e, j, v)
			kkt.Set(j, n+e, v)
		}
	}
	for k, w := range work {
		r := s.p.side(w)
		if r.g != nil {
			for j, v := range r.g {
				kkt.Set(n+me+k, j, r.sign*v)
				kkt.Set(j, n+me+k, r.sign*v)
			}
		} else {
			kkt.Set(n+me+k, r.idx, r.sign)
			kkt.Set(r.idx, n+me+k, r.sign)
		}
	}
}

// activities computes act, gᵀx per user row at the iterate.
func (s *activeSet) activities() {
	s.act = growFloat(s.act, len(s.p.gin))
	mat.DotRows(s.act, s.p.gin, s.x)
}

// assemble writes the solution into dst: it scatters working-set
// multipliers back to per-row duals and copies the row activities, which
// must be current. dst's six vectors share one backing array, reused when
// it has room.
func (s *activeSet) assemble(dst *Solution, nu, lam []float64) {
	p := s.p
	n, me, mi := p.n, len(nu), len(p.gin)
	buf := growFloat(dst.buf, 3*n+me+2*mi)
	dst.buf = buf
	dst.X = buf[:n:n]
	dst.EqDual = buf[n : n+me : n+me]
	dst.IneqDual = buf[n+me : n+me+mi : n+me+mi]
	dst.Activity = buf[n+me+mi : n+me+2*mi : n+me+2*mi]
	dst.LowerDual = buf[n+me+2*mi : 2*n+me+2*mi : 2*n+me+2*mi]
	dst.UpperDual = buf[2*n+me+2*mi:]
	copy(dst.X, s.x)
	copy(dst.EqDual, nu)
	copy(dst.Activity, s.act)
	clear(dst.IneqDual)
	clear(dst.LowerDual)
	clear(dst.UpperDual)
	for k, w := range s.work {
		r := s.p.side(w)
		l := lam[k]
		if l < 0 {
			l = 0 // within tolerance of zero
		}
		switch {
		case r.g != nil:
			dst.IneqDual[r.idx] += r.sign * l
		case r.sign < 0:
			dst.LowerDual[r.idx] = l
		default:
			dst.UpperDual[r.idx] = l
		}
	}
	// With H diagonal each row dot xᵢ·Σⱼ Hᵢⱼxⱼ reduces to xᵢ·(Hᵢᵢ·xᵢ).
	xHx := 0.0
	for i, xi := range dst.X {
		hx := p.h.At(i, i) * xi
		if p.offDiag != 0 {
			hx = mat.Dot(p.h.RawRow(i), dst.X)
		}
		xHx += xi * hx
	}
	dst.Objective = 0.5*xHx + mat.Dot(p.c, dst.X)
}
