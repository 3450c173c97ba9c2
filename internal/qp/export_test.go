package qp

// solvePrimal solves p by the primal active-set method from an LP feasible
// start even when H is positive definite: the oracle the dual method is
// tested against, reachable only from tests.
func solvePrimal(p *Problem, opts Options) (*Solution, error) {
	return solve(p, opts, true)
}
