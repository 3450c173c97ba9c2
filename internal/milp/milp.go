// Package milp implements a branch-and-bound solver on top of the lp
// package. It supports two kinds of combinatorial structure, both needed by
// the bilevel attack generator:
//
//   - binary variables — used for the paper's big-M MILP reformulation of
//     the KKT complementary-slackness conditions (Section III, eq. 16–17);
//   - complementarity pairs (x_a · x_b = 0 with x_a, x_b ≥ 0) — used for
//     direct complementarity branching, which avoids big-M constants and
//     their numeric pitfalls.
//
// The search explores a frontier of open nodes under a pluggable selection
// strategy (Options.NodeOrder): depth-first (default), best-first on the
// inherited relaxation bound, or a hybrid that plunges depth-first and
// restarts from the best bound. Branching picks the most fractional binary
// or the most violated complementarity pair, optionally weighted by learned
// pseudo-costs.
package milp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/telemetry"
)

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
	NodeLimit // search truncated; Solution carries the best incumbent
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrBadPair is returned when a complementarity pair references variables
// that may go negative.
var ErrBadPair = errors.New("milp: complementarity pair variables must have non-negative lower bounds")

// BoundSource supplies an externally proven incumbent objective to a running
// search (see Options.Bound). Bound reports the current external objective
// and whether one exists; it is called on the searching goroutine but may be
// updated from others, so implementations must synchronize internally.
type BoundSource interface {
	Bound() (obj float64, ok bool)
}

// Problem couples an LP relaxation with integrality/complementarity
// structure.
type Problem struct {
	// Base is the LP relaxation. The solver temporarily mutates variable
	// bounds during the search and restores them afterwards; the problem
	// must not be shared concurrently.
	Base *lp.Problem

	binaries []int
	pairs    [][2]int
}

// NewProblem wraps an LP relaxation.
func NewProblem(base *lp.Problem) *Problem {
	return &Problem{Base: base}
}

// SetBinary declares variable j binary (bounds forced to [0, 1]).
func (p *Problem) SetBinary(j int) error {
	if err := p.Base.SetBounds(j, 0, 1); err != nil {
		return fmt.Errorf("milp: %w", err)
	}
	p.binaries = append(p.binaries, j)
	return nil
}

// AddComplementarityPair requires x_a · x_b = 0. Both variables must have
// non-negative lower bounds.
func (p *Problem) AddComplementarityPair(a, b int) error {
	for _, j := range [2]int{a, b} {
		lo, _ := p.Base.Bounds(j)
		if lo < 0 {
			return fmt.Errorf("variable %d has lower bound %g: %w", j, lo, ErrBadPair)
		}
	}
	p.pairs = append(p.pairs, [2]int{a, b})
	return nil
}

// Solution is the result of a solve.
type Solution struct {
	// Status reports optimality, infeasibility, unboundedness, or a
	// truncated search.
	Status Status
	// X is the best integral/complementary point found (nil if none).
	X []float64
	// Objective is the objective at X in the problem's own sense.
	Objective float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// LPIterations is the total simplex pivot count across all node
	// relaxations — the search's real unit of work.
	LPIterations int
	// Incumbents counts incumbent improvements (first solution included).
	Incumbents int
	// Pruned counts nodes cut by the incumbent bound.
	Pruned int
	// HeuristicHits counts rounding-heuristic calls that produced an
	// improving incumbent.
	HeuristicHits int
	// WarmNodes counts node relaxations solved by the warm-started dual
	// simplex path; WarmFallbacks counts nodes where a warm basis was
	// offered but the LP fell back to a cold solve. Nodes − WarmNodes −
	// WarmFallbacks is the count of nodes solved cold with no basis to
	// reuse (the root, and every node after a structural reset).
	WarmNodes     int
	WarmFallbacks int
	// RootBasis is the optimal basis of the root relaxation, captured when
	// warm starts are enabled. Row-generation callers remap it onto the
	// next round's grown problem to keep basis reuse flowing across rounds.
	RootBasis *lp.Basis
	// BestBound is the proven bound on the optimum in the problem's own
	// sense: equal to Objective when Status is Optimal, the best inherited
	// relaxation bound over the surviving frontier when a node limit
	// truncated the search, and the pruning seed when a seeded search
	// proved nothing beats it (Status Infeasible with Options.Incumbent
	// set). A truncated search that never solved the root reports ±Inf.
	BestBound float64
	// Gap is the relative distance between BestBound and the incumbent,
	// normalized as |BestBound − Objective| / (1 + |Objective|): zero for
	// proven-optimal results, +Inf when truncation left no incumbent.
	Gap float64
}

// Options tune the search.
type Options struct {
	// MaxNodes caps branch-and-bound nodes (default 200000).
	MaxNodes int
	// IntTol is the integrality/complementarity tolerance (default 1e-6).
	IntTol float64
	// Gap is the relative optimality gap at which a node is pruned
	// against the incumbent (default 1e-9).
	Gap float64
	// Incumbent, when non-nil, seeds the search with a known feasible
	// objective value for pruning (e.g. from a heuristic attack).
	Incumbent *float64
	// Bound, when non-nil, supplies an external incumbent objective proven
	// elsewhere while this search runs (e.g. by a concurrent sibling
	// subproblem). It is polled once per node; the search prunes against
	// the tighter of the local incumbent and this bound, so a bound that
	// improves mid-solve immediately tightens all remaining nodes.
	// Implementations must be safe for concurrent use and monotone in the
	// problem's own sense (only ever tightening); the searched problem's
	// returned solution may still be worse than the final bound — callers
	// arbitrate across searches themselves.
	Bound BoundSource
	// Heuristic, when non-nil, is invoked with the root relaxation's point
	// and may return a feasible objective and point to update the
	// incumbent even though the relaxation point itself is fractional or
	// non-complementary. The returned point is trusted to be feasible for
	// the caller's problem semantics. The root point is a pure function of
	// the instance, so the offer — unlike a per-node sweep — is identical
	// under every NodeOrder and worker schedule, which keeps exact solves
	// bit-identical across strategies.
	Heuristic func(relaxX []float64) (obj float64, point []float64, ok bool)
	// NodeOrder selects the node-selection strategy (default OrderDFS).
	// Exact results are identical under every strategy; node counts, work,
	// and which of several equal-quality optima is reported first differ.
	NodeOrder NodeOrder
	// PseudoCost enables pseudo-cost branching: entities are scored by
	// fractionality/violation weighted with the average relaxation-bound
	// degradation observed when branching them, seeded at the root from
	// complementarity-violation magnitudes.
	PseudoCost bool
	// LP are the options for each relaxation solve. Every relaxation of
	// one run shares LP.Workspace; when it is nil, the run borrows one from
	// lp's pool for its whole branch-and-bound sequence.
	LP lp.Options
	// WarmBasis, when non-nil, seeds the root relaxation with a basis from
	// an earlier solve of the same LP shape (e.g. the previous row-
	// generation round's root, remapped onto the grown problem).
	WarmBasis *lp.Basis
	// DisableWarmStart turns off basis reuse across nodes, cold-solving
	// every relaxation as the solver did before warm starts existed.
	DisableWarmStart bool
	// Metrics, when non-nil, receives milp_* search counters; it is also
	// forwarded to the relaxation LPs unless LP.Metrics is already set.
	Metrics *telemetry.Registry
	// Span, when non-nil, parents a per-solve trace span carrying node,
	// prune, and incumbent counts.
	Span *telemetry.Span
	// Flight, when non-nil, records one FlightNode event per B&B node
	// (disposition, depth, bound, pivots, warm/cold) and a FlightIncumbent
	// event per incumbent update. It is also forwarded to the relaxation
	// LPs unless LP.Flight is already set. Recording is observational only
	// and never alters the search.
	Flight *telemetry.Flight
	// FlightTemplate pre-fills identity fields (Target, Dir, Round) on
	// every event this solve records, so a caller running many MILPs can
	// attribute nodes to its own work items.
	FlightTemplate telemetry.FlightEvent
	// Ctx, when non-nil, is polled once per branch-and-bound node (before
	// the node's LP solve) and forwarded to the relaxation LPs unless
	// LP.Ctx is already set. A canceled or expired context aborts the
	// search with the context's error (wrapped, errors.Is-compatible);
	// no partial Solution is returned, since a schedule-dependent
	// truncation point would break the solver's determinism contract.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	if o.IntTol <= 0 {
		o.IntTol = 1e-6
	}
	if o.Gap <= 0 {
		o.Gap = 1e-9
	}
	return o
}

// Solve runs branch and bound with default options.
func Solve(p *Problem) (*Solution, error) {
	return SolveWith(p, Options{})
}

// boundFix is one temporary variable-bound restriction along a branch.
type boundFix struct {
	j      int
	lo, hi float64
}

// node is one open branch-and-bound node: the list of bound fixes from the
// root, plus the parent relaxation's optimal basis. The basis is shared
// read-only between siblings (lp.Basis is immutable), so each child's
// relaxation warm-starts from the parent — the bound fix leaves that basis
// dual-feasible, which is what makes the dual simplex re-solve cheap.
type node struct {
	fixes []boundFix
	basis *lp.Basis
	// parent is the 1-based id of the node that branched into this one
	// (0 for the root), recorded for the flight recorder's search-tree
	// export. Ids are assigned in pop order, matching the node count.
	parent int
	// score is the parent relaxation's objective — a proven bound on this
	// subtree (±Inf for the root). Best-first ordering, frontier pruning,
	// the truncated-search BestBound, and pseudo-cost degradations all read
	// it.
	score float64
	// seq is the frontier push sequence number, the deterministic heap
	// tie-break.
	seq int
	// entity is the branching entity that created this node (binary
	// position, or binary count + pair position; −1 for the root) and up
	// its branch side, feeding pseudo-cost observations.
	entity int
	up     bool
}

// SolveWith runs branch and bound with explicit options.
func SolveWith(p *Problem, opts Options) (*Solution, error) {
	o := opts.withDefaults()
	if o.LP.Metrics == nil {
		o.LP.Metrics = o.Metrics
	}
	if o.LP.Flight == nil {
		o.LP.Flight = o.Flight
	}
	if o.LP.Ctx == nil {
		o.LP.Ctx = o.Ctx
	}
	ws := o.LP.Workspace
	if ws == nil {
		ws = lp.GetWorkspace()
		defer lp.PutWorkspace(ws)
		o.LP.Workspace = ws
	}
	// Whatever the sequence leaves certified on the workspace ends with it.
	defer ws.Reset()
	maximize := p.isMaximize()
	warm := !o.DisableWarmStart
	if warm {
		// Capture every node's optimal basis (for its children) and let the
		// workspace retain the final engine state between node solves.
		o.LP.CaptureBasis = true
	}

	var lpIters, incumbents, pruned, heurHits int
	var warmNodes, warmFallbacks int
	var rootBasis *lp.Basis
	span := telemetry.StartSpan(nil, o.Span, "milp.solve")
	finish := func(sol *Solution, err error) (*Solution, error) {
		if sol != nil {
			sol.LPIterations = lpIters
			sol.Incumbents = incumbents
			sol.Pruned = pruned
			sol.HeuristicHits = heurHits
			sol.WarmNodes = warmNodes
			sol.WarmFallbacks = warmFallbacks
			sol.RootBasis = rootBasis
		}
		if m := o.Metrics; m != nil {
			m.Counter("milp_solves_total").Inc()
			m.Counter("milp_lp_iterations_total").Add(int64(lpIters))
			m.Counter("milp_incumbents_total").Add(int64(incumbents))
			m.Counter("milp_pruned_total").Add(int64(pruned))
			m.Counter("milp_heuristic_hits_total").Add(int64(heurHits))
			if sol != nil {
				m.Counter("milp_nodes_total").Add(int64(sol.Nodes))
				m.Histogram("milp_nodes", telemetry.NodeBuckets).Observe(float64(sol.Nodes))
			}
			if err != nil {
				m.Counter("milp_errors_total").Inc()
			}
		}
		if span != nil {
			if sol != nil {
				span.SetAttr("status", sol.Status.String())
				span.SetAttr("nodes", sol.Nodes)
				span.SetAttr("lp_iterations", lpIters)
				span.SetAttr("incumbents", incumbents)
				span.SetAttr("pruned", pruned)
				span.SetAttr("warm_nodes", warmNodes)
				span.SetAttr("cold_nodes", sol.Nodes-warmNodes)
			}
			if err != nil {
				span.SetAttr("error", err.Error())
			}
			span.End()
		}
		return sol, err
	}

	// Save original bounds of every variable we may touch, to restore on
	// exit. The restore list is an ordered slice (not a map) so restores
	// happen in one fixed order.
	type saved struct{ lo, hi float64 }
	touched := make(map[int]saved)
	var touchOrder []int
	touch := func(j int) {
		if _, ok := touched[j]; !ok {
			lo, hi := p.Base.Bounds(j)
			touched[j] = saved{lo, hi}
			touchOrder = append(touchOrder, j)
		}
	}
	for _, j := range p.binaries {
		touch(j)
	}
	for _, pr := range p.pairs {
		touch(pr[0])
		touch(pr[1])
	}
	defer func() {
		for _, j := range touchOrder {
			s := touched[j]
			_ = p.Base.SetBounds(j, s.lo, s.hi)
		}
	}()

	better := func(a, b float64) bool {
		if maximize {
			return a > b
		}
		return a < b
	}

	var incumbent []float64
	incObj := math.Inf(1)
	if maximize {
		incObj = math.Inf(-1)
	}
	if o.Incumbent != nil {
		incObj = *o.Incumbent
	}

	var pcosts *pseudoCosts
	if o.PseudoCost {
		pcosts = newPseudoCosts(len(p.binaries) + len(p.pairs))
	}

	rootScore := math.Inf(1)
	if !maximize {
		rootScore = math.Inf(-1)
	}
	f := newFrontier(o.NodeOrder, maximize)
	f.push(node{basis: o.WarmBasis, score: rootScore, entity: -1})
	strategy := o.NodeOrder.String()
	nodes := 0
	// Per-node flight/timing state. finishNode is called at every exit
	// point of a node's iteration with the node's disposition; when both
	// recorder and metrics are off it reduces to one branch per node.
	fl := o.Flight
	timedNodes := fl != nil || o.Metrics != nil
	var nodeStart time.Time
	var nodeID, nodeParent, nodeDepth int
	finishNode := func(label string, rel *lp.Solution) {
		if !timedNodes {
			return
		}
		dur := time.Since(nodeStart)
		if o.Metrics != nil {
			o.Metrics.Histogram("milp_node_seconds", telemetry.SecondsBuckets).Observe(dur.Seconds())
		}
		if fl == nil {
			return
		}
		ev := o.FlightTemplate
		ev.Kind = telemetry.FlightNode
		ev.Node = nodeID
		ev.Parent = nodeParent
		ev.Depth = nodeDepth
		ev.Label = label
		ev.Strategy = strategy
		ev.Frontier = f.len()
		ev.DurUS = dur.Microseconds()
		if rel != nil {
			ev.Bound = rel.Objective
			ev.Pivots = rel.Iterations
			ev.Warm = rel.Warm
			ev.Sparse = rel.Sparse
		}
		if incumbent != nil || o.Incumbent != nil {
			ev.Incumbent = incObj
		}
		fl.Record(ev)
	}
	recordIncumbent := func(obj float64, source string) {
		if fl == nil {
			return
		}
		ev := o.FlightTemplate
		ev.Kind = telemetry.FlightIncumbent
		ev.Node = nodeID
		ev.Incumbent = obj
		ev.Label = source
		fl.Record(ev)
	}
	// Fixes applied for the node currently reflected in p.Base's bounds;
	// undoing exactly these (in order) returns every bound to its original,
	// so each node restores O(|prev fixes|) bounds instead of rewriting the
	// whole touched set from a map in nondeterministic order.
	var applied []boundFix
	undoApplied := func() error {
		for _, fx := range applied {
			s := touched[fx.j]
			if err := p.Base.SetBounds(fx.j, s.lo, s.hi); err != nil {
				return fmt.Errorf("milp: restoring bounds: %w", err)
			}
		}
		applied = applied[:0]
		return nil
	}
	// pruneRef is the tighter of the local incumbent and the shared
	// external bound; relGapTo normalizes a proven bound against the
	// incumbent the way prune tolerances are normalized.
	pruneRef := func() (float64, bool) {
		ref, have := incObj, incumbent != nil || o.Incumbent != nil
		if o.Bound != nil {
			if b, ok := o.Bound.Bound(); ok && (!have || better(b, ref)) {
				ref, have = b, true
			}
		}
		return ref, have
	}
	relGapTo := func(bound float64) float64 {
		if incumbent == nil && o.Incumbent == nil {
			return math.Inf(1)
		}
		g := bound - incObj
		if !maximize {
			g = incObj - bound
		}
		if g < 0 {
			g = 0
		}
		return g / (1 + math.Abs(incObj))
	}
	for f.len() > 0 {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				return finish(nil, fmt.Errorf("milp: search aborted after %d nodes: %w", nodes, err))
			}
		}
		if nodes >= o.MaxNodes {
			bound := f.bestBound()
			if (incumbent != nil || o.Incumbent != nil) && better(incObj, bound) {
				bound = incObj
			}
			sol := &Solution{Status: NodeLimit, Nodes: nodes, BestBound: bound, Gap: relGapTo(bound)}
			if incumbent != nil {
				sol.X = incumbent
				sol.Objective = incObj
			}
			return finish(sol, nil)
		}
		cur, _ := f.pop()
		nodes++
		nodeID, nodeParent, nodeDepth = nodes, cur.parent, len(cur.fixes)
		if timedNodes {
			nodeStart = time.Now()
		}

		// Frontier prune: under bound-aware orders a popped node whose
		// inherited bound cannot beat the incumbent (or the shared
		// external bound) is discarded before any LP work. DFS keeps the
		// historical solve-then-prune accounting.
		if o.NodeOrder != OrderDFS {
			if ref, have := pruneRef(); have {
				gapTol := o.Gap * (1 + math.Abs(ref))
				if maximize && cur.score <= ref+gapTol || !maximize && cur.score >= ref-gapTol {
					pruned++
					finishNode("pruned", nil)
					continue
				}
			}
		}

		// Undo the previous node's fixes, then apply this node's.
		if err := undoApplied(); err != nil {
			return finish(nil, err)
		}
		applyOK := true
		for _, f := range cur.fixes {
			if err := p.Base.SetBounds(f.j, f.lo, f.hi); err != nil {
				applyOK = false // conflicting fixes → infeasible branch
				break
			}
			applied = append(applied, f)
		}
		if !applyOK {
			if err := undoApplied(); err != nil {
				return finish(nil, err)
			}
			finishNode("conflict", nil)
			continue
		}
		nodeLP := o.LP
		if warm {
			nodeLP.WarmBasis = cur.basis
		}
		rel, err := lp.SolveWith(p.Base, nodeLP)
		if rel != nil {
			lpIters += rel.Iterations
			if rel.Warm {
				warmNodes++
			} else if warm && cur.basis != nil {
				warmFallbacks++
			}
			if nodes == 1 {
				rootBasis = rel.Basis
			}
		}
		if err != nil {
			return finish(nil, fmt.Errorf("milp: node %d relaxation: %w", nodes, err))
		}
		switch rel.Status {
		case lp.Infeasible:
			finishNode("infeasible", rel)
			continue
		case lp.Unbounded:
			if nodes == 1 && len(p.binaries) == 0 && len(p.pairs) == 0 {
				return finish(&Solution{Status: Unbounded, Nodes: nodes}, nil)
			}
			// An unbounded relaxation cannot be pruned by bound;
			// treat as an error since our problems are always
			// bounded.
			return finish(nil, fmt.Errorf("milp: node %d relaxation unbounded", nodes))
		}

		// Pseudo-cost learning: record the realized bound degradation
		// from the parent relaxation to this one.
		if pcosts != nil && cur.entity >= 0 && !math.IsInf(cur.score, 0) {
			degr := cur.score - rel.Objective
			if !maximize {
				degr = -degr
			}
			if degr < 0 {
				degr = 0
			}
			pcosts.observe(cur.entity, cur.up, degr)
		}

		if nodes == 1 {
			// Root work: seed pair pseudo-costs from the root relaxation's
			// complementarity-violation magnitudes.
			if pcosts != nil {
				for pi, pr := range p.pairs {
					if v := math.Min(rel.X[pr[0]], rel.X[pr[1]]); v > o.IntTol {
						pcosts.seed(len(p.binaries)+pi, v)
					}
				}
			}

			// Root primal heuristic: let the caller round the root
			// relaxation point into a known-feasible incumbent. Root-only
			// on purpose: a per-node sweep would make the best offer depend
			// on which nodes the chosen NodeOrder happens to visit before
			// pruning, and with it the returned solution — the root point
			// is the same under every strategy.
			if o.Heuristic != nil {
				if hObj, hPoint, ok := o.Heuristic(rel.X); ok {
					if incumbent == nil && o.Incumbent == nil || better(hObj, incObj) {
						incObj = hObj
						incumbent = append([]float64(nil), hPoint...)
						incumbents++
						heurHits++
						recordIncumbent(hObj, "heuristic")
					}
				}
			}
		}

		// Bound pruning against the tighter of the local incumbent and
		// the external shared bound (if any).
		if ref, have := pruneRef(); have {
			gapTol := o.Gap * (1 + math.Abs(ref))
			if maximize && rel.Objective <= ref+gapTol || !maximize && rel.Objective >= ref-gapTol {
				pruned++
				finishNode("pruned", rel)
				continue
			}
		}

		// Pick a branching entity: the most fractional binary first, else
		// the most violated complementarity pair; pseudo-cost branching
		// weights both by learned bound degradations.
		be, bkind := p.selectBranch(rel.X, o.IntTol, pcosts)
		switch bkind {
		case branchBinary:
			// Branch on the binary: floor child and ceil child, each
			// warm-started from this node's optimal basis. The child that
			// rounds toward the relaxation value is preferred (explored
			// first under DFS, continues the plunge under hybrid).
			bj := p.binaries[be]
			lo := cur.child(nodeID, rel.Basis, boundFix{bj, 0, 0}, rel.Objective, be, false)
			hi := cur.child(nodeID, rel.Basis, boundFix{bj, 1, 1}, rel.Objective, be, true)
			if rel.X[bj] >= 0.5 {
				f.pushChildren(hi, lo)
			} else {
				f.pushChildren(lo, hi)
			}
			finishNode("branch", rel)
		case branchPair:
			// Branch on the complementarity pair: fix one side to zero,
			// preferring the child that zeroes the smaller value.
			pr := p.pairs[be-len(p.binaries)]
			ca := cur.child(nodeID, rel.Basis, boundFix{pr[0], 0, 0}, rel.Objective, be, false)
			cb := cur.child(nodeID, rel.Basis, boundFix{pr[1], 0, 0}, rel.Objective, be, true)
			if rel.X[pr[0]] <= rel.X[pr[1]] {
				f.pushChildren(ca, cb)
			} else {
				f.pushChildren(cb, ca)
			}
			finishNode("branch", rel)
		default:
			// Integral and complementary: candidate incumbent.
			if incumbent == nil || better(rel.Objective, incObj) {
				incumbent = append([]float64(nil), rel.X...)
				incObj = rel.Objective
				incumbents++
				recordIncumbent(rel.Objective, "integral")
				finishNode("incumbent", rel)
			} else {
				finishNode("integral", rel)
			}
		}
	}
	if incumbent == nil {
		// Exhausted frontier with no incumbent: with a pruning seed that is
		// a proof that nothing beats the seed, and the seed itself is the
		// proven bound.
		sol := &Solution{Status: Infeasible, Nodes: nodes}
		if o.Incumbent != nil {
			sol.BestBound = incObj
		}
		return finish(sol, nil)
	}
	return finish(&Solution{
		Status: Optimal, X: incumbent, Objective: incObj, Nodes: nodes,
		BestBound: incObj, Gap: 0,
	}, nil)
}

// child extends the fix list functionally (copy-on-write so siblings don't
// alias), records the parent relaxation's basis as the child's warm seed, and
// inherits the parent relaxation objective as the child's proven bound.
func (n node) child(parent int, basis *lp.Basis, f boundFix, score float64, entity int, up bool) node {
	fixes := make([]boundFix, len(n.fixes)+1)
	copy(fixes, n.fixes)
	fixes[len(n.fixes)] = f
	return node{fixes: fixes, basis: basis, parent: parent, score: score, entity: entity, up: up}
}

// Branch entity kinds returned by selectBranch.
const (
	branchNone = iota
	branchBinary
	branchPair
)

// selectBranch picks the branching entity for a relaxation point: binaries
// (most fractional) take precedence over complementarity pairs (most
// violated); with pseudo-costs the raw fractionality/violation is weighted by
// the entity's learned degradation averages. Returns the entity index
// (binary position, or binary count + pair position) and its kind, or
// (-1, branchNone) when the point is integral and complementary.
func (p *Problem) selectBranch(x []float64, tol float64, pc *pseudoCosts) (int, int) {
	best, bestScore := -1, tol
	for bi, j := range p.binaries {
		frac := math.Abs(x[j] - math.Round(x[j]))
		if frac <= tol {
			continue
		}
		score := frac
		if pc != nil {
			score = pc.score(bi, frac)
		}
		if score > bestScore {
			best, bestScore = bi, score
		}
	}
	if best >= 0 {
		return best, branchBinary
	}
	bestScore = tol
	for pi, pr := range p.pairs {
		v := math.Min(x[pr[0]], x[pr[1]])
		if v <= tol {
			continue
		}
		e := len(p.binaries) + pi
		score := v
		if pc != nil {
			score = pc.score(e, v)
		}
		if score > bestScore {
			best, bestScore = e, score
		}
	}
	if best >= 0 {
		return best, branchPair
	}
	return -1, branchNone
}

func (p *Problem) isMaximize() bool {
	return p.Base.IsMaximize()
}
