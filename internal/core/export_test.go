package core

import "github.com/edsec/edattack/internal/dispatch"

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

// SkippedCandidate is a candidate a coordinate scan dropped without a
// dispatch solve, solved anyway under WithSkipCheck.
type SkippedCandidate struct {
	// Slack is true for an unchanged-optimum skip and false for a
	// monotone-infeasibility skip.
	Slack bool
	// SlackED is, for a slack skip, the ED the proof used: the skipped
	// candidate's ED must equal it.
	SlackED *dispatch.Result
	// Result and Err are the skipped candidate's own ED solve.
	Result *dispatch.Result
	Err    error
}

func skipChecker(f func(SkippedCandidate)) skipHook {
	return func(kind skipKind, slack, res *dispatch.Result, err error) {
		f(SkippedCandidate{Slack: kind == skipSlack, SlackED: slack, Result: res, Err: err})
	}
}

// WithSkipCheck returns o with every candidate the dive and polish skip
// solved anyway and handed to f; the skips still stand. f may be called
// from several workers at once.
func WithSkipCheck(o Options, f func(SkippedCandidate)) Options {
	o.checkSkip = skipChecker(f)
	return o
}

// WithCoordinateSkipCheck is WithSkipCheck for CoordinateAscentAttack.
func WithCoordinateSkipCheck(o CoordinateOptions, f func(SkippedCandidate)) CoordinateOptions {
	o.checkSkip = skipChecker(f)
	return o
}
