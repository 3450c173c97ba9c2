package core

import (
	"math"
	"sync/atomic"

	"github.com/edsec/edattack/internal/milp"
)

// seedSlackFactor scales the pruning slack applied when a realized attacker
// gain is turned into a branch-and-bound pruning seed. The slack must be
// STRICTLY wider than the MILP's own prune tolerance Gap·(1+|obj|), and here
// is why: Algorithm 1's subproblems are independent, so two of them can
// attain exactly the same optimal gain (equal-quality optima). If the seed
// derived from one sat within the prune tolerance of the other's optimum,
// the other subproblem would be pruned in schedules where the seed arrived
// early and proven in schedules where it arrived late — the winning
// (gain, target, direction) triple would then depend on worker timing.
// Backing the seed off by twice the prune tolerance guarantees every
// subproblem whose optimum ties or beats the eventual best gain survives
// pruning and proves its optimum under ANY schedule, which is what makes
// FindOptimalAttack's output worker-count-independent. (The historical
// sequential back-off, 1e-9·(1+gain), equaled the default tolerance exactly
// and sat on this knife's edge.)
const seedSlackFactor = 2

// pruneSeed converts an objective value proven feasible elsewhere into a
// pruning bound for a search whose relative gap is relGap: strictly below
// the objective by seedSlackFactor × the search's own prune tolerance.
func pruneSeed(obj, relGap float64) float64 {
	if relGap <= 0 {
		relGap = 1e-9 // the milp package's default Gap
	}
	return obj - seedSlackFactor*relGap*(1+math.Abs(obj))
}

// incumbentBound is the shared, monotonically increasing record of the best
// realized attacker gain across Algorithm 1's concurrent subproblems. Any
// worker that proves a better gain publishes it here; every in-flight MILP
// search polls it per node (via a subproblemBound adapter), so a discovery
// on one worker immediately tightens pruning on all others. Lock-free: a
// single atomic word holding the float64 bits of the best gain.
//
// Gains are attacker utilities (non-negative percentages), so the raw bit
// pattern of a float64 compares monotonically with the value and a plain
// CAS-max loop suffices. The word stores Float64bits(gain)+1, with 0 as the
// "no bound yet" sentinel — a single word, so publish and read are each one
// atomic operation with no torn has/value pairing.
type incumbentBound struct {
	v atomic.Uint64
	// seq, set before any subproblem runs, marks a sequential fan-out:
	// every Offer and Best happens on the caller's goroutine, so the bound
	// lives in a plain word and the CAS loop is bypassed. The MILP node
	// loop polls the bound once per node, so this is a per-node saving.
	seq  bool
	seqV uint64
}

// Offer publishes a realized gain; the bound only ever tightens.
func (b *incumbentBound) Offer(gain float64) {
	if gain < 0 || math.IsNaN(gain) {
		return
	}
	nv := math.Float64bits(gain) + 1
	if b.seq {
		if nv > b.seqV {
			b.seqV = nv
		}
		return
	}
	for {
		old := b.v.Load()
		if old >= nv {
			return
		}
		if b.v.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Best returns the best gain published so far, if any.
func (b *incumbentBound) Best() (float64, bool) {
	var v uint64
	if b.seq {
		v = b.seqV
	} else {
		v = b.v.Load()
	}
	if v == 0 {
		return 0, false
	}
	return math.Float64frombits(v - 1), true
}

// subproblemBound adapts the shared gain bound to one subproblem's MILP
// objective scale. masterObj is affine in the gain with unit slope, so the
// conversion is a constant offset; the adapter also applies the pruneSeed
// slack and records whether a bound was ever observed, which is how the
// caller distinguishes "pruned against a sibling's bound" from "provably no
// feasible attack here".
type subproblemBound struct {
	inc    *incumbentBound
	offset float64 // masterObj(g) = g + offset for this (target, dir)
	relGap float64
	saw    atomic.Bool
}

var _ milp.BoundSource = (*subproblemBound)(nil)

// Bound implements milp.BoundSource.
func (sb *subproblemBound) Bound() (float64, bool) {
	g, ok := sb.inc.Best()
	if !ok {
		return 0, false
	}
	sb.saw.Store(true)
	return pruneSeed(g+sb.offset, sb.relGap), true
}

// sawBound reports whether any poll observed a published bound.
func (sb *subproblemBound) sawBound() bool {
	return sb.saw.Load()
}
