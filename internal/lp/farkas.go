package lp

import "math"

// Farkas certification of warm infeasibility verdicts.
//
// When the warm dual simplex stops on a leaving row r that no entering
// column can repair — no eligible column, or every candidate flips to its
// other bound and violation remains — row r of B⁻¹ is a dual ray: the
// textbook certificate of primal infeasibility (Koberstein, "The dual simplex
// method", 2005). The engine does not take its own word for it. It hands the
// row over as y, in the problem's original row signs, and farkasCertified
// re-derives the verdict from the problem data alone, touching no basis,
// factorization, or reduced cost: every point x that satisfies the rows
// satisfies yᵀ[A | S]x = yᵀb, so if yᵀb lies outside the range of gᵀx with
// g = yᵀ[A | S] over the variable box (slacks in [0, +∞)), no such point
// exists.
//
// Two tolerances make the check robust to the drift accumulated by the
// pivots that produced y:
//
//   - g_j with |g_j| ≤ farkasZeroTol·Σ|y_i|‖a_i‖∞ counts as zero. Those are
//     the basic columns other than row r's own, zero in exact arithmetic.
//   - yᵀb must clear the range by farkasMargin·(1 + Σ|y_i b_i| +
//     Σ|g_j|·|finite bound_j|), the scale of the sums involved.
//
// A certificate that fails either test is rejected and the solve falls back
// to the cold two-phase solver, so an Infeasible verdict is never weaker
// than before.
const (
	farkasZeroTol = 1e-9
	farkasMargin  = 1e-7
)

// tamperRay, when non-nil, rewrites each certificate row before it is
// checked. It is nil outside tests, which set it to show that a corrupted
// certificate is rejected and the solve falls back cold.
var tamperRay func(y []float64)

// farkasCertified reports whether y (one entry per row of p, original row
// signs) proves that p has no point within its variable bounds. g is scratch
// of length at least nvars + numSlacks.
func farkasCertified(p *Problem, y, g []float64) bool {
	n := p.nvars
	g = g[:n+p.numSlacks()]
	clear(g)
	var yb, ybAbs, scale float64
	slack := n
	for i, r := range p.rows {
		yi := y[i]
		rowMax := 0.0
		for k, j := range r.ind {
			g[j] += yi * r.val[k]
			rowMax = math.Max(rowMax, math.Abs(r.val[k]))
		}
		if r.rel != EQ {
			if r.rel == LE {
				g[slack] = yi
			} else {
				g[slack] = -yi
			}
			rowMax = math.Max(rowMax, 1)
			slack++
		}
		yb += yi * r.rhs
		ybAbs += math.Abs(yi * r.rhs)
		scale += math.Abs(yi) * rowMax
	}
	zero := farkasZeroTol * scale
	var lo, hi, mag float64 // range of gᵀx over the box, and its magnitude
	for j, gj := range g {
		if math.Abs(gj) <= zero {
			continue
		}
		l, u := 0.0, math.Inf(1) // slack box
		if j < n {
			l, u = p.lower[j], p.upper[j]
		}
		if gj > 0 {
			lo += gj * l
			hi += gj * u
		} else {
			lo += gj * u
			hi += gj * l
		}
		b := 0.0
		if !isNegInf(l) {
			b = math.Abs(l)
		}
		if !isPosInf(u) {
			b = math.Max(b, math.Abs(u))
		}
		mag += math.Abs(gj) * b
	}
	margin := farkasMargin * (1 + ybAbs + mag)
	return yb > hi+margin || yb < lo-margin
}
