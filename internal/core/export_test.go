package core

// Test-only exports: the worker-parameterized baseline attackers, so the
// external test package can pin their worker-count independence, and the
// monitor-all switch, the exact reference for row generation.

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
