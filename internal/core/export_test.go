package core

// Test-only exports of the worker-parameterized baseline attackers, so the
// external test package can pin their worker-count independence.

func GreedyVertexAttackWorkers(k *Knowledge, workers int) (*Attack, error) {
	return greedyVertexAttack(k, workers, nil)
}

func RandomAttackWorkers(k *Knowledge, samples int, seed int64, workers int) (*Attack, error) {
	return randomAttack(k, samples, seed, workers)
}
