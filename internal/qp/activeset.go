package qp

import (
	"errors"
	"fmt"

	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/sparse"
)

// activeSet runs the primal (run) or dual (runDual) active-set iteration.
// It lives in a workspace's qpScratch between solves: attach resets every
// per-solve field and keeps the buffers.
type activeSet struct {
	p    *Problem
	rows []ineqRow
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

	// Row keys (stable or positional), assigned once per solve by
	// stableRowKeys; stable reports whether they may key a KKTCache.
	keyed, stable bool

	// Work counters: KKT systems solved and factorizations computed (sparse
	// base, Schur complement, dense fallback KKT), reported once per solve.
	kktSolves, kktFactors int
}

// activeBuffers are the active-set iteration's reusable buffers. Every user
// sizes a buffer (grow, cloneInto, append onto [:0]) before reading it, so
// content left by an earlier solve is never observed; only work, which the
// iteration appends to, is truncated per solve.
type activeBuffers struct {
	work []int // indices into rows forming the working set

	// keys[i] identifies rows[i] across solves sharing a KKTCache (stable
	// scheme) or within this solve only (positional scheme).
	keys []int64
	// w0 = B⁻¹·[−c; beq] and the per-row dots ĝ_wᵀ·w0, per solve (the
	// objective and right-hand sides may differ between cached solves).
	w0    []float64
	rw0   []float64
	rw0ok []bool
	// keyBuf is scratch for packing working sets into map keys.
	keyBuf []byte

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

	// lamBuf holds the working-set multipliers of a bordered KKT solve.
	lamBuf []float64
	// The dual method's state — the iterate and its multipliers, copied
	// from the KKT solve of the working set — and its step direction.
	xBuf, nuBuf, wlamBuf []float64
	dirBuf, dirLam       []float64
}

// KKTCache carries factorization work reusable across solves of structurally
// identical QPs: same Hessian, same equality rows, same bound structure, and
// the same gradient behind every stable inequality-row key (see
// Options.RowKeys). Objective vectors and all right-hand sides — beq,
// inequality limits, bound values — may differ freely between solves; those
// enter only through per-solve vectors. The canonical client is repeated
// economic dispatch under varying line ratings, where every KKT matrix is
// drawn from one fixed family.
//
// It holds the bordered factorization (kktSchur): the base LU, border
// columns, Schur entries, and Schur factors. A cached factor is the one a
// fresh factorization of the same matrix computes, so results never depend
// on what the cache holds.
//
// The zero value is ready to use. A KKTCache is not safe for concurrent use;
// per-worker model clones must each own one.
type KKTCache struct {
	n, me int
	tried bool
	sc    *kktSchur

	// Whether the n-variable Hessian is positive definite (selecting the
	// dual method), once pdKnown.
	pdN         int
	pdKnown, pd bool
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
// B⁻¹ĝ_w is cached per row key, every Schur entry ĝ_vᵀB⁻¹ĝ_w is cached per
// key pair, and Schur factorizations are cached per working set — all of
// which depend only on the gradients, so with a cross-solve KKTCache a
// steady-state KKT solve costs one small triangular solve instead of the
// dense (n+me+mw)³ factorization it replaced.
type kktSchur struct {
	dim0 int        // n + me
	base *sparse.LU // factorization of B

	cols  map[int64][]float64 // row key → B⁻¹·ĝ_w
	dots  map[uint64]float64  // packed key pair → ĝ_vᵀ·B⁻¹·ĝ_w
	sfact map[string]*mat.LU  // packed working set → Schur factorization
	sbad  map[string]bool     // packed working set → singular (dependent)
}

// run iterates: solve the equality-constrained QP on the working set, then
// either take a (possibly blocked) step, drop a constraint with a negative
// multiplier, or declare optimality.
func (s *activeSet) run() (*Solution, error) {
	tol := s.opts.Tol
	// Seed the working set with constraints active at the start point.
	for i := range s.rows {
		if len(s.work) >= s.p.n-len(s.p.aeq) {
			break // keep the working set small enough for independence
		}
		if s.rows[i].h-s.rows[i].value(s.x) < tol {
			cand := append(append(s.cand[:0], s.work...), i)
			s.cand = cand
			if s.tryKKT(cand) {
				s.work = append(s.work, i)
			}
		}
	}
	for iter := 0; iter < s.opts.MaxIter; iter++ {
		xStar, nu, lam, err := s.solveKKT(s.work)
		if err != nil {
			// Dependent working set: drop the newest row and retry.
			if len(s.work) == 0 {
				return nil, fmt.Errorf("qp: KKT solve failed with empty working set: %w", err)
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
				sol := s.assemble(nu, lam)
				sol.Iterations = iter + 1
				return sol, nil
			}
			s.work = append(s.work[:minIdx], s.work[minIdx+1:]...)
			continue
		}
		// Ratio test against rows not in the working set.
		alpha, blocking := 1.0, -1
		for i := range s.rows {
			if s.inWork(i) {
				continue
			}
			gd := s.rows[i].dirDot(d)
			if gd <= tol {
				continue
			}
			slack := s.rows[i].h - s.rows[i].value(s.x)
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
	return nil, fmt.Errorf("%w (after %d iterations)", ErrIterLimit, s.opts.MaxIter)
}

func (s *activeSet) inWork(i int) bool {
	for _, w := range s.work {
		if w == i {
			return true
		}
	}
	return false
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
		rhs[n+me+k] = s.rows[w].h
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

// stableRowKeys assigns the row keys (once per solve) and reports whether
// they identify rows across solves.
func (s *activeSet) stableRowKeys() bool {
	if !s.keyed {
		s.keyed = true
		s.stable = s.stableKeys()
		if !s.stable {
			s.positionalKeys()
		}
	}
	return s.stable
}

// initSchur factors the base KKT matrix sparsely once per solve (or adopts
// the caller's KKTCache's factorization) and computes B⁻¹r for this solve's
// right-hand side. Rows without a stable identity make cross-solve reuse
// unsound, so such a solve ignores the cache.
func (s *activeSet) initSchur() {
	s.schurTried = true
	n := s.p.n
	me := len(s.p.aeq)
	var cache *KKTCache
	if s.stableRowKeys() {
		cache = s.opts.Cache
	}
	if cache != nil && cache.tried && cache.n == n && cache.me == me {
		if cache.sc != nil {
			s.schur = cache.sc
			s.initW0()
		}
		return
	}
	sc := s.buildSchur()
	if cache != nil {
		cache.n, cache.me, cache.tried, cache.sc = n, me, true, sc
	}
	if sc != nil {
		s.schur = sc
		s.initW0()
	}
}

// stableKeys assigns cross-solve row identities: a caller-supplied key for
// each user inequality row and the variable index for each bound row. It
// reports false — leaving the keys unset — when the caller provided no (or
// malformed) keys, in which case cross-solve caching is disabled.
func (s *activeSet) stableKeys() bool {
	rk := s.opts.RowKeys
	if len(s.p.gin) > 0 && len(rk) != len(s.p.gin) {
		return false
	}
	keys := growInt64(s.keys, len(s.rows))
	for i := range s.rows {
		r := &s.rows[i]
		switch r.kind {
		case kindUser:
			k := rk[r.idx]
			if k < 0 || k >= 1<<28 {
				return false
			}
			keys[i] = k << 2
		case kindUpper:
			keys[i] = int64(r.idx)<<2 | 1
		case kindLower:
			keys[i] = int64(r.idx)<<2 | 2
		}
	}
	s.keys = keys
	return true
}

// positionalKeys identifies rows by position, valid within one solve only.
func (s *activeSet) positionalKeys() {
	s.keys = growInt64(s.keys, len(s.rows))
	for i := range s.keys {
		s.keys[i] = int64(i)<<2 | 3
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
		dim0:  dim0,
		base:  base,
		cols:  make(map[int64][]float64),
		dots:  make(map[uint64]float64),
		sfact: make(map[string]*mat.LU),
		sbad:  make(map[string]bool),
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
	for i := n + len(s.p.aeq); i < len(w0); i++ {
		w0[i] = 0
	}
	s.schur.base.Solve(w0)
	s.w0 = w0
	s.rw0 = growFloat(s.rw0, len(s.rows))
	s.rw0ok = growBool(s.rw0ok, len(s.rows))
	for i := range s.rw0ok {
		s.rw0ok[i] = false
	}
}

// borderCol returns B⁻¹·ĝ_w, computing and caching it on first use. The
// cache never invalidates: B and the gradient behind a key are fixed for
// the cache's lifetime.
func (s *activeSet) borderCol(w int) []float64 {
	if c, ok := s.schur.cols[s.keys[w]]; ok {
		return c
	}
	v := make([]float64, s.schur.dim0)
	r := &s.rows[w]
	if r.g != nil {
		copy(v, r.g)
	} else {
		v[r.idx] = r.sign
	}
	s.schur.base.Solve(v)
	s.schur.cols[s.keys[w]] = v
	return v
}

// pairDot returns ĝ_vᵀ·B⁻¹·ĝ_w, cached per unordered key pair (the base is
// symmetric, so the dot is too; the canonical orientation makes the cached
// value — and hence the Schur matrix — exactly symmetric).
func (s *activeSet) pairDot(wi, wj int) float64 {
	a, b := s.keys[wi], s.keys[wj]
	if a > b {
		a, b = b, a
		wi, wj = wj, wi
	}
	key := uint64(a)<<32 | uint64(b)
	if v, ok := s.schur.dots[key]; ok {
		return v
	}
	v := rowDot(&s.rows[wi], s.borderCol(wj))
	s.schur.dots[key] = v
	return v
}

// rhsDot returns ĝ_wᵀ·w0, cached per row for this solve.
func (s *activeSet) rhsDot(w int) float64 {
	if s.rw0ok[w] {
		return s.rw0[w]
	}
	v := rowDot(&s.rows[w], s.w0)
	s.rw0[w], s.rw0ok[w] = v, true
	return v
}

// packWork packs a working set's ordered row keys into keyBuf; string(key)
// keys the Schur maps.
func (s *activeSet) packWork(work []int) []byte {
	buf := s.keyBuf[:0]
	for _, w := range work {
		k := uint32(s.keys[w])
		buf = append(buf, byte(k), byte(k>>8), byte(k>>16), byte(k>>24))
	}
	s.keyBuf = buf
	return buf
}

// rowDot is ĝ_wᵀ·v for a vector over the base dimension (the gradient is
// zero over the equality block).
func rowDot(r *ineqRow, v []float64) float64 {
	if r.g == nil {
		return r.sign * v[r.idx]
	}
	d := 0.0
	for j, g := range r.g {
		if g != 0 {
			d += g * v[j]
		}
	}
	return d
}

// solveKKTSchur solves the working-set KKT system through the bordered
// reduction. A singular Schur complement means the working-set gradients
// are dependent (given the nonsingular base), exactly the condition the
// dense path reports as ErrSingular.
func (s *activeSet) solveKKTSchur(work []int) (x, nu, lam []float64, err error) {
	if s.memoOK && sameWorkSet(s.memoWork, work) {
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
			rhs[i] = s.rhsDot(w) - s.rows[w].h
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
	k := s.schur
	key := s.packWork(work)
	if k.sbad[string(key)] {
		return nil, mat.ErrSingular
	}
	if f := k.sfact[string(key)]; f != nil {
		return f, nil
	}
	mw := len(work)
	sc := mat.New(mw, mw)
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
		if len(k.sbad) >= 1024 {
			clear(k.sbad)
		}
		k.sbad[string(key)] = true
		return nil, err
	}
	if len(k.sfact) >= 1024 {
		clear(k.sfact)
	}
	k.sfact[string(key)] = f
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
		r := &s.rows[w]
		if r.g != nil {
			for j, v := range r.g {
				kkt.Set(n+me+k, j, v)
				kkt.Set(j, n+me+k, v)
			}
		} else {
			kkt.Set(n+me+k, r.idx, r.sign)
			kkt.Set(r.idx, n+me+k, r.sign)
		}
	}
}

// sameWorkSet reports whether two working sets are identical including
// order (order determines multiplier rows).
func sameWorkSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assemble scatters working-set multipliers back to per-row duals.
func (s *activeSet) assemble(nu, lam []float64) *Solution {
	p := s.p
	sol := &Solution{
		X:         mat.CloneVec(s.x),
		EqDual:    mat.CloneVec(nu),
		IneqDual:  make([]float64, len(p.gin)),
		LowerDual: make([]float64, p.n),
		UpperDual: make([]float64, p.n),
	}
	for k, w := range s.work {
		r := &s.rows[w]
		l := lam[k]
		if l < 0 {
			l = 0 // within tolerance of zero
		}
		switch r.kind {
		case kindUser:
			sol.IneqDual[r.idx] = l
		case kindLower:
			sol.LowerDual[r.idx] = l
		case kindUpper:
			sol.UpperDual[r.idx] = l
		}
	}
	xHx := 0.0
	for i, xi := range sol.X {
		xHx += xi * mat.Dot(p.h.RawRow(i), sol.X)
	}
	sol.Objective = 0.5*xHx + mat.Dot(p.c, sol.X)
	return sol
}
