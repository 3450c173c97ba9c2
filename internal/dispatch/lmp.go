package dispatch

import (
	"fmt"
)

// LMPs computes locational marginal prices from a solved dispatch: the
// system energy price plus each bus's congestion component,
//
//	LMP_i = λ_energy − Σ_l μ_l · PTDF_{l,i},
//
// where μ_l is the (signed) shadow price of line l's rating constraint.
// The paper's introduction motivates a strategic market participant as one
// attacker persona; LMP shifts are how a rating manipulation turns into
// market advantage.
//
// The energy price λ is recovered from a marginal interior generator (one
// strictly inside its limits has marginal cost equal to its bus LMP).
func (m *Model) LMPs(res *Result) ([]float64, error) {
	if res == nil || len(res.P) != len(m.Net.Gens) {
		return nil, fmt.Errorf("dispatch: LMPs needs a result for %d generators", len(m.Net.Gens))
	}
	gens := m.Net.Gens

	// Recover the energy price from an interior unit: at optimality its
	// marginal cost equals LMP at its bus = λ − Σ μ·PTDF.
	lambda := 0.0
	found := false
	for i := range gens {
		p := res.P[i]
		if p > gens[i].Pmin+1e-6 && p < gens[i].Pmax-1e-6 {
			var cong float64
			for _, d := range res.LineDuals {
				cong += d.Dual * m.M.At(d.Line, i)
			}
			lambda = gens[i].MarginalCost(p) + cong
			found = true
			break
		}
	}
	if !found {
		// Every unit at a limit: fall back to the most expensive
		// dispatched unit's marginal cost as the price proxy.
		for i := range gens {
			if res.P[i] > gens[i].Pmin+1e-6 {
				if mc := gens[i].MarginalCost(res.P[i]); mc > lambda {
					lambda = mc
				}
			}
		}
	}

	nb := len(m.Net.Buses)
	lmp := make([]float64, nb)
	for bi := 0; bi < nb; bi++ {
		price := lambda
		for _, d := range res.LineDuals {
			price -= d.Dual * m.ptdf.At(d.Line, bi)
		}
		lmp[bi] = price
	}
	return lmp, nil
}

// CongestionRent computes the total congestion rent Σ_l μ_l·f_l of a
// dispatch — the merchandising surplus congestion creates, a compact
// market-impact scalar for attack studies.
func (m *Model) CongestionRent(res *Result) (float64, error) {
	if res == nil || len(res.Flows) != len(m.Net.Lines) {
		return 0, fmt.Errorf("dispatch: CongestionRent needs a result for %d lines", len(m.Net.Lines))
	}
	var rent float64
	for _, d := range res.LineDuals {
		rent += d.Dual * res.Flows[d.Line]
	}
	return rent, nil
}
