package qp

// solvePrimal solves p by the primal active-set method from an LP feasible
// start even when H is positive definite: the oracle the dual method is
// tested against, reachable only from tests.
func solvePrimal(p *Problem, opts Options) (*Solution, error) {
	sol := &Solution{}
	if err := solve(p, opts, true, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// solveDenseKKT solves p with every KKT system assembled and factored
// densely afresh, bypassing the bordered Schur path and any cache reuse:
// the oracle the bordered path is tested against, reachable only from
// tests.
func solveDenseKKT(p *Problem, opts Options) (*Solution, error) {
	opts.denseKKT = true
	return SolveWith(p, opts)
}
