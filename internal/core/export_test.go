package core

// Test-only exports: the worker-parameterized baseline attackers, so the
// external test package can pin their worker-count independence, and the
// A/B switches the gates flip on Options.

func GreedyVertexAttackWorkers(k *Knowledge, workers int) (*Attack, error) {
	return greedyVertexAttack(k, workers, nil)
}

func RandomAttackWorkers(k *Knowledge, samples int, seed int64, workers int) (*Attack, error) {
	return randomAttack(k, samples, seed, workers)
}

// WithMonitorAll returns o with every rated line monitored from the first
// row-generation round.
func WithMonitorAll(o Options) Options {
	o.monitorAll = true
	return o
}

// WithColdLP returns o with every LP relaxation cold-solved: no basis
// reuse across nodes, rounds, or runs.
func WithColdLP(o Options) Options {
	o.noWarmStart = true
	return o
}

// WithoutDive returns o with the dives, polishes, and rich refinement off,
// so attacks come from branch-and-bound alone.
func WithoutDive(o Options) Options {
	o.noDive = true
	return o
}
