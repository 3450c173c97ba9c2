package dispatch

import (
	"math"

	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/qp"
)

// SolveRebuilt re-solves the final round of m's last Solve from scratch:
// a fresh qp.Problem with a fresh copy of every line's M row, the lines
// that round enforced bounded on both sides and the rest open, solved cold
// without a KKTCache, a hot start, or a workspace, with the flows computed
// again by mat (M·p, then + Base). Every row sits at its line index, as in
// the model's persistent QP: row keys follow the row index, and their
// order fixes which side of each cached Schur dot is computed, so a
// problem holding only the enforced lines would differ in the last bits.
func (m *Model) SolveRebuilt(ratings []float64) (*Result, error) {
	gens := m.Net.Gens
	ng := len(gens)
	prob := qp.NewProblem(ng)
	ones := make([]float64, ng)
	for i := range gens {
		ones[i] = 1
		_ = prob.SetQuadCoeff(i, i, 2*gens[i].CostA)
		_ = prob.SetLinCoeff(i, gens[i].CostB)
		_ = prob.SetBounds(i, gens[i].Pmin, gens[i].Pmax)
	}
	_, _ = prob.AddEquality(ones, m.Demand)
	for li, in := range m.inSet {
		i, _ := prob.AddInequality(m.M.Row(li), 0)
		lo, hi := math.Inf(-1), math.Inf(1)
		if u := ratings[li]; in && u > 0 {
			// −(u + Base), not Solve's −u − Base: the two are the same
			// bits.
			lo, hi = -(u + m.Base[li]), u-m.Base[li]
		}
		if err := prob.SetRowBounds(i, lo, hi); err != nil {
			return nil, err
		}
	}
	sol, err := qp.SolveWith(prob, qp.Options{})
	if err != nil {
		return nil, err
	}
	mp, err := m.M.MulVec(sol.X)
	if err != nil {
		return nil, err
	}
	flows := mat.AxPlusY(1, mp, m.Base)
	res := &Result{P: sol.X, Flows: flows, Cost: m.Cost(sol.X), LineDuals: sol.IneqDual}
	for li, f := range flows {
		if u := ratings[li]; u > 0 && math.Abs(f)-u > -1e-5*(1+u) {
			res.Binding = append(res.Binding, li)
		}
	}
	return res, nil
}
