package qp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/edsec/edattack/internal/mat"
)

// depRatio bounds the curvature a candidate row may keep after projection
// onto the working set, relative to its unprojected curvature, before it
// counts as linearly dependent on the working set: −ĝ_pᵀz ≤ depRatio·σ_p
// (see runDual). Roundoff leaves a dependent row up to ~1e-11 of its
// curvature on an ill-conditioned working set; genuinely independent rows
// keep orders of magnitude more.
const depRatio = 1e-9

// WorkingSet is a hot start for the dual method (Options.Start): the side
// positions (see Problem.side) of the working set a solve ended with.
// The zero value is a cold start.
type WorkingSet struct {
	rows []int // ascending
}

// Reset empties the working set, keeping its storage.
func (w *WorkingSet) Reset() { w.rows = w.rows[:0] }

// CopyFrom makes w a copy of src, reusing w's storage.
func (w *WorkingSet) CopyFrom(src *WorkingSet) { w.rows = append(w.rows[:0], src.rows...) }

// runDual is the Goldfarb–Idnani dual active-set method for a positive
// definite H. It keeps the iterate at the KKT point of the working set W,
// which makes it optimal for every row in W with non-negative multipliers,
// and adds violated rows until none is left; it never needs a feasible
// point.
//
// It starts at the KKT point of a dual-feasible W: the hinted working set
// (see hotStart) or, without one, the empty set, whose KKT point is the
// equality-constrained minimizer. It then repeatedly picks a violated row
// p, pricing partially: p is the most violated of the candidates — the
// hinted rows and every row a full scan has found violated — and only when
// no candidate is violated does a full scan of every row pick the most
// violated row overall. A full scan that finds no violated row ends the
// solve. Raising p's multiplier by t moves the iterate along z and the
// working-set multipliers along dλ, where
//
//	K(W)·[z; dν; dλ] = [−ĝ_p; 0; 0].
//
// The full step t₂ = violation/(−ĝ_pᵀz) makes p active: p joins W, and the
// iterate and multipliers are re-read from the KKT solve of the new W, so
// no step error accumulates. When a working-set multiplier reaches zero
// first (the partial step t₁), its row leaves W and p is tried again. A p
// dependent on W (z = 0) takes a pure dual step; when no multiplier limits
// that step either, no point satisfies the rows, and the method returns
// ErrInfeasible. Violations are tested against the absolute tol, as the
// primal method's activeness test is.
//
// W is kept in row order: p is inserted in place, not appended. The
// returned point and multipliers come from the KKT solve of the final W,
// so with the order fixed they depend on the final set only — not on the
// hint, nor on the path that reached the set.
func (s *activeSet) runDual(dst *Solution) error {
	hint := s.opts.Start
	err := s.dualIterate(hint, dst)
	if hint != nil {
		hint.rows = hint.rows[:0]
		if err == nil {
			hint.rows = append(hint.rows, s.work...)
		}
	}
	return err
}

// dualIterate runs the dual method from the hinted working set (nil for a
// cold start) and writes the solution into dst.
func (s *activeSet) dualIterate(hint *WorkingSet, dst *Solution) error {
	iter, err := s.hotStart(hint)
	if err != nil {
		return err
	}
	if len(s.work) == 0 {
		x, nu, lam, err := s.solveKKT(s.work)
		if err != nil {
			return fmt.Errorf("qp: KKT solve failed with empty working set: %w", err)
		}
		s.adopt(x, nu, lam)
	}
	for {
		p, viol := s.priceCandidates()
		if p < 0 {
			if p, viol = s.priceAll(); p < 0 {
				s.assemble(dst, s.nuBuf, s.wlamBuf)
				dst.Iterations = iter + 1
				return nil
			}
		}
		rp := s.p.side(p)
		sigma := s.curvature(p)
		for added := false; !added; {
			if iter >= s.opts.maxIter {
				return fmt.Errorf("%w (after %d iterations)", ErrIterLimit, s.opts.maxIter)
			}
			iter++
			z, dlam, err := s.direction(s.work, p)
			if err != nil {
				return err
			}
			// t₁: the largest step keeping every working-set multiplier
			// non-negative, limited by row k.
			t1, k := math.Inf(1), -1
			for j, d := range dlam {
				if d < 0 {
					if t := max(-s.wlamBuf[j]/d, 0); t < t1 {
						t1, k = t, j
					}
				}
			}
			// With n independent rows active (equalities included), every
			// further row is dependent.
			gz := rp.dot(z)
			dependent := len(s.work)+len(s.p.aeq) >= s.p.n || -gz <= depRatio*sigma
			if !dependent && viol/-gz <= t1 {
				at, _ := slices.BinarySearch(s.work, p)
				cand := append(append(append(s.cand[:0], s.work[:at]...), p), s.work[at:]...)
				s.cand = cand
				x, nu, lam, err := s.solveKKT(cand)
				if err == nil {
					s.work = slices.Insert(s.work, at, p)
					s.adopt(x, nu, lam)
					added = true
					continue
				}
				if !errors.Is(err, mat.ErrSingular) {
					return err
				}
				// Numerically dependent after all: no full step.
			}
			if k < 0 {
				return ErrInfeasible
			}
			if !dependent {
				for j := range s.x {
					s.x[j] += t1 * z[j]
				}
				viol = rp.dot(s.x) - rp.h
			}
			for j, d := range dlam {
				s.wlamBuf[j] += t1 * d
			}
			s.work = append(s.work[:k], s.work[k+1:]...)
			s.wlamBuf = append(s.wlamBuf[:k], s.wlamBuf[k+1:]...)
		}
	}
}

// priceCandidates returns the most violated pricing candidate outside W
// and its violation, or −1 when no candidate is violated by more than tol.
func (s *activeSet) priceCandidates() (int, float64) {
	p, viol := -1, s.opts.tol
	for _, i := range s.cands {
		r := s.p.side(i)
		if v := r.dot(s.x) - r.h; v > viol && !slices.Contains(s.work, i) {
			p, viol = i, v
		}
	}
	return p, viol
}

// priceAll scans every side for the most violated one outside W, as
// priceCandidates does, and makes every violated side it meets a
// candidate. It prices the user rows from their activities, which it
// computes first (one dot per row serves both sides); an open side's
// h = +Inf makes its violation −Inf. The activities it leaves are the
// Solution's when it finds nothing.
func (s *activeSet) priceAll() (int, float64) {
	s.activities()
	p, viol := -1, s.opts.tol
	price := func(i int, v float64) {
		if v > s.opts.tol && !slices.Contains(s.work, i) {
			s.cands = append(s.cands, i)
			if v > viol {
				p, viol = i, v
			}
		}
	}
	for k, a := range s.act {
		price(2*k, a-s.p.hin[k])
		price(2*k+1, -a+s.p.lin[k])
	}
	user := 2 * len(s.act)
	for j, x := range s.x {
		price(user+2*j, x-s.p.upper[j])
		price(user+2*j+1, -x+s.p.lower[j])
	}
	return p, viol
}

// hotStart seeds W and the pricing candidates with the hint's rows that
// are not open in this solve, in row order, then makes W dual feasible:
// while its KKT system is singular it drops the last row, and while a
// multiplier is below −tol it drops the row with the most negative one.
// Each drop counts as an iteration; the count is returned. On return the
// iterate is adopted from the KKT solve of W, unless W ended empty.
func (s *activeSet) hotStart(hint *WorkingSet) (int, error) {
	s.cands = s.cands[:0]
	if hint == nil {
		return 0, nil
	}
	for _, i := range hint.rows {
		if i < s.p.numSides() && !s.p.side(i).open() {
			s.work = append(s.work, i)
		}
	}
	s.cands = append(s.cands, s.work...)
	iter := 0
	for len(s.work) > 0 {
		if iter >= s.opts.maxIter {
			return 0, fmt.Errorf("%w (after %d iterations)", ErrIterLimit, s.opts.maxIter)
		}
		x, nu, lam, err := s.solveKKT(s.work)
		if err != nil {
			if !errors.Is(err, mat.ErrSingular) {
				return 0, err
			}
			s.work = s.work[:len(s.work)-1]
			iter++
			continue
		}
		k, least := -1, -s.opts.tol
		for j, l := range lam {
			if l < least {
				k, least = j, l
			}
		}
		if k < 0 {
			s.adopt(x, nu, lam)
			break
		}
		s.work = append(s.work[:k], s.work[k+1:]...)
		iter++
	}
	return iter, nil
}

// adopt copies a KKT solve of the working set into the dual state.
func (s *activeSet) adopt(x, nu, lam []float64) {
	s.xBuf = cloneInto(s.xBuf, x)
	s.nuBuf = cloneInto(s.nuBuf, nu)
	s.wlamBuf = cloneInto(s.wlamBuf, lam)
	s.x = s.xBuf
}

// curvature returns σ_p = Σⱼ g_pⱼ²/Hⱼⱼ, which is ĝ_pᵀH⁻¹ĝ_p for a diagonal
// H: the value −ĝ_pᵀz takes with nothing to project against. A row whose
// projected curvature falls below depRatio·σ_p is dependent on the working
// set.
func (s *activeSet) curvature(p int) float64 {
	r := s.p.side(p)
	if r.g == nil {
		return 1 / s.p.h.At(r.idx, r.idx)
	}
	sigma := 0.0
	for j, g := range r.g {
		if g != 0 {
			sigma += g * g / s.p.h.At(j, j)
		}
	}
	return sigma
}

// direction solves K(W)·[z; dν; dλ] = [−ĝ_p; 0; 0] for the working set
// work and the candidate row p, returning z and dλ, the changes of the
// iterate and the working-set multipliers per unit of p's multiplier. It
// runs on the same factorizations as solveKKT — the bordered base and Schur
// factors, or the dense fallback — with a new right-hand side. The results
// live in dirBuf/dirLam until the next call.
func (s *activeSet) direction(work []int, p int) (z, dlam []float64, err error) {
	s.kktSolves++
	if s.bordered() {
		return s.directionSchur(work, p)
	}
	n := s.p.n
	me := len(s.p.aeq)
	rhs := growFloat(s.rhsBuf, n+me+len(work))
	s.rhsBuf = rhs
	clear(rhs)
	if r := s.p.side(p); r.g != nil {
		for j, v := range r.g {
			rhs[j] = -(r.sign * v)
		}
	} else {
		rhs[r.idx] = -r.sign
	}
	u, err := s.solveDense(work, rhs)
	if err != nil {
		return nil, nil, err
	}
	return u[:n], u[n+me:], nil
}

// directionSchur is direction through the bordered reduction: with
// r = −ĝ_p and a zero working-set right-hand side, S·dλ = −[ĝ_wᵀB⁻¹ĝ_p]
// and [z; dν] = −B⁻¹ĝ_p − (B⁻¹G)·dλ, all from cached columns and dots.
func (s *activeSet) directionSchur(work []int, p int) (z, dlam []float64, err error) {
	u := growFloat(s.dirBuf, s.schur.dim0)
	s.dirBuf = u
	for t, v := range s.borderCol(p) {
		u[t] = -v
	}
	dlam = s.dirLam[:0]
	if len(work) > 0 {
		f, err := s.schurFactor(work)
		if err != nil {
			return nil, nil, err
		}
		rhs := growFloat(s.rhsBuf, len(work))
		s.rhsBuf = rhs
		for i, w := range work {
			rhs[i] = -s.pairDot(w, p)
		}
		if dlam, err = f.SolveInto(s.dirLam, rhs); err != nil {
			return nil, nil, err
		}
		s.dirLam = dlam
		s.subtractBorder(u, work, dlam)
	}
	return u[:s.p.n], dlam, nil
}
