// Package core implements the paper's primary contribution: optimal
// generation of dynamic-line-rating (DLR) manipulations against economic
// dispatch (Sections II–III of "Compromising Security of Economic Dispatch
// in Power System Operations", DSN 2017).
//
// The attacker (leader) picks manipulated ratings uᵃ within the EMS
// plausibility band [u_min, u_max] for the DLR line set E_D; the operator
// (follower) then solves DC economic dispatch against the manipulated
// ratings. The attacker maximizes the worst percentage violation of the
// *true* dynamic ratings u^d by the resulting flows:
//
//	U_cap(f; u^d) = max 100·( max_{l ∈ E_D, dir} dir·f_l / u^d_l − 1 )⁺
//
// Following Section III, the bilevel program is split into 2·|E_D|
// subproblems (one per DLR line and flow direction), each reformulated as a
// single-level program via the inner problem's KKT conditions. Two
// reformulations are provided: the paper's big-M MILP and direct
// complementarity branching (the default, which avoids big-M numerics).
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/telemetry"
)

// checkoutModelWorkspace attaches a workspace from lp's pool to the model's
// LP/QP solver stack and returns the release function that restores the
// model's prior workspace and returns the borrowed one.
func checkoutModelWorkspace(m *dispatch.Model) func() {
	prior := m.Workspace
	ws := lp.GetWorkspace()
	m.Workspace = ws
	return func() {
		m.Workspace = prior
		lp.PutWorkspace(ws)
	}
}

// checkoutWorkspaces equips one bilevel task: a pooled workspace on the
// model (dispatch and QP solves) and a second on o.ws (the inner MILP's LP
// relaxations, threaded to milp.Options.LP). The two are deliberately
// distinct — the MILP's dive/polish heuristics run dispatch solves
// mid-search, and sharing one workspace would evict the branch-and-bound
// engine's retained factorization between nodes, demoting warm node solves
// to cold ones. The receiver must be a per-task copy of the caller's
// Options (o.ws is written). Sequential (Workers==1) runs share the
// caller's model across tasks; saving and restoring the model's prior
// workspace keeps that path on the identical checkout discipline as the
// clone-per-task one.
func (o *Options) checkoutWorkspaces(m *dispatch.Model) func() {
	releaseModel := checkoutModelWorkspace(m)
	ws := lp.GetWorkspace()
	o.ws = ws
	return func() {
		o.ws = nil
		releaseModel()
		lp.PutWorkspace(ws)
	}
}

// ErrNoDLRLines is returned when the network has no DLR-equipped lines to
// attack.
var ErrNoDLRLines = errors.New("core: network has no DLR lines")

// ErrNoFeasibleAttack is returned when no stealthy manipulation admits a
// feasible dispatch (the operator would alarm for every choice).
var ErrNoFeasibleAttack = errors.New("core: no feasible stealthy attack")

// ErrDLRBounds is wrapped by EvaluateAttack's error when the EMS bound check
// rejects the manipulated rating map: a rating outside its line's
// plausibility band, on a line with no DLR feed, or on a line index out of
// range.
var ErrDLRBounds = errors.New("core: manipulation rejected by EMS bound check")

// Knowledge is the attacker's model of the system (Section II-A): network
// topology, susceptances, generator data and costs, nominal demand — all of
// which the paper argues are realistically obtainable — plus the current
// true dynamic ratings u^d of the DLR lines.
type Knowledge struct {
	// Model is the attacker's copy of the operator's DC-ED model.
	Model *dispatch.Model
	// TrueDLR maps DLR line index → the actual dynamic rating u^d the
	// attacker will overwrite (and against which violations are scored).
	TrueDLR map[int]float64
	// memo caches dive/polish dispatch evaluations keyed by the manipulated
	// rating vector. The dispatch solution is a unique pure function of the
	// ratings: the QP is strictly convex, and a solve's bits do not depend
	// on the model's warm-start memory by construction — the QP keeps its
	// working set in row order, so the result is the KKT solution of the
	// final working set whatever the hot-start working set held. The cache
	// therefore changes speed only, never results. Shared across workers; cached
	// Results are treated as immutable.
	memo *edMemo
	// memoKeyBuf packs solveMemo's lookup key. Each worker holds its own
	// Knowledge (forWorker), so the buffer is never shared.
	memoKeyBuf []byte
}

// NewKnowledge validates and bundles attacker knowledge. TrueDLR must have
// an entry for every DLR line; values must lie inside the line's
// plausibility band (NaN never does).
func NewKnowledge(m *dispatch.Model, trueDLR map[int]float64) (*Knowledge, error) {
	dlr := m.Net.DLRLines()
	if len(dlr) == 0 {
		return nil, ErrNoDLRLines
	}
	for _, li := range dlr {
		v, ok := trueDLR[li]
		if !ok {
			return nil, fmt.Errorf("core: missing true DLR value for line %d", li)
		}
		l := &m.Net.Lines[li]
		if math.IsNaN(v) || v <= 0 || v < l.DLRMin-1e-9 || v > l.DLRMax+1e-9 {
			return nil, fmt.Errorf("core: true DLR %g for line %d outside plausibility band [%g, %g]",
				v, li, l.DLRMin, l.DLRMax)
		}
	}
	for li := range trueDLR {
		if li < 0 || li >= len(m.Net.Lines) || !m.Net.Lines[li].HasDLR {
			return nil, fmt.Errorf("core: TrueDLR entry for non-DLR line %d", li)
		}
	}
	return &Knowledge{Model: m, TrueDLR: trueDLR, memo: newEDMemo()}, nil
}

// edMemoCap bounds the dispatch memo: past this many entries lookups still
// hit but new results are no longer inserted, so a long scenario sweep
// cannot grow the cache without bound.
const edMemoCap = 1 << 17

// edMemo is a concurrency-safe memo of dispatch solves keyed by the packed
// manipulated-rating vector; a nil stored Result records infeasibility.
type edMemo struct {
	mu sync.Mutex
	m  map[string]*dispatch.Result
}

func newEDMemo() *edMemo {
	return &edMemo{m: make(map[string]*dispatch.Result)}
}

// appendMemoKey appends the manipulated ratings (in the fixed DLR-line
// order) to b; float bits keep the key exact.
func appendMemoKey(b []byte, order []int, dlr map[int]float64) []byte {
	for _, li := range order {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(dlr[li]))
	}
	return b
}

// solveMemo runs (or recalls) the operator's dispatch under a manipulation,
// counting core_edmemo_{hits,misses}_total on the model's registry. The
// boolean reports feasibility; the returned Result must not be mutated.
func (k *Knowledge) solveMemo(order []int, dlr map[int]float64) (*dispatch.Result, bool) {
	if k.memo == nil {
		res, err := k.Model.Solve(k.ratingsUnder(dlr))
		return res, err == nil
	}
	// m[string(key)] looks up without allocating; only an insert copies
	// the key into a string.
	key := appendMemoKey(k.memoKeyBuf[:0], order, dlr)
	k.memoKeyBuf = key
	k.memo.mu.Lock()
	res, hit := k.memo.m[string(key)]
	k.memo.mu.Unlock()
	if hit {
		k.Model.Metrics.Counter("core_edmemo_hits_total").Inc()
		return res, res != nil
	}
	k.Model.Metrics.Counter("core_edmemo_misses_total").Inc()
	res, err := k.Model.Solve(k.ratingsUnder(dlr))
	if err != nil {
		res = nil
	}
	k.memo.mu.Lock()
	if len(k.memo.m) < edMemoCap {
		k.memo.m[string(key)] = res
	}
	k.memo.mu.Unlock()
	return res, res != nil
}

// trueRatings returns the rating vector with DLR lines at their true
// dynamic values — the yardstick violations are measured against.
func (k *Knowledge) trueRatings() []float64 {
	return k.Model.Net.Ratings(k.TrueDLR)
}

// Attack is one manipulated-rating vector with its predicted consequences.
type Attack struct {
	// DLR maps DLR line index → manipulated rating uᵃ.
	DLR map[int]float64
	// rawDLR preserves the pre-canonicalization manipulated ratings; the
	// winner's final rich polish restarts from these (the choked-canonical
	// DLR can be dispatch-infeasible as a starting point).
	rawDLR map[int]float64
	// TargetLine and Direction identify the subproblem that produced the
	// attack: the DLR line whose capacity violation is maximized, and the
	// flow direction (+1 From→To, −1 To→From).
	TargetLine int
	Direction  int
	// GainPct is the predicted attacker utility U_cap: the percentage by
	// which the target line's DC flow exceeds its true rating (clamped at
	// zero).
	GainPct float64
	// PredictedP and PredictedFlows are the dispatch and DC flows the
	// bilevel model predicts the operator will implement.
	PredictedP, PredictedFlows []float64
	// PredictedCost is the operator's generation cost under the attack as
	// estimated by the DC model.
	PredictedCost float64
	// Nodes is the total branch-and-bound node count spent.
	Nodes int
	// Rounds is the number of row-generation refinements performed.
	Rounds int
	// Exact reports whether the branch-and-bound search completed; false
	// means a node budget truncated it and GainPct is a (realized,
	// achievable) lower bound on the optimum.
	Exact bool
	// Stats summarizes the solver work spent producing this attack (nil
	// for heuristic attackers that run no bilevel search).
	Stats *SolverStats
}

// SolverStats aggregates the optimization work behind an Attack or
// Evaluation, for capacity planning and regression tracking.
type SolverStats struct {
	// Subproblems is the number of (target, direction) bilevel subproblems
	// solved to completion; Pruned counts those cut off by the seed bound
	// without yielding an improving attack.
	Subproblems, Pruned int
	// Nodes is the total branch-and-bound node count.
	Nodes int
	// SimplexIterations is the total simplex pivot count across every LP
	// relaxation and dispatch solve attributed to this result.
	SimplexIterations int
	// Rounds is the total number of row-generation refinements.
	Rounds int
	// WarmNodes counts branch-and-bound node relaxations solved by the
	// warm-started dual simplex (basis reused from the parent node or, at
	// round roots, remapped from the previous row-generation round);
	// WarmFallbacks counts nodes where the warm path handed off to a cold
	// solve. WarmNodes/Nodes is the warm-start hit rate.
	WarmNodes, WarmFallbacks int
	// Truncated counts branch-and-bound searches cut off by the node
	// budget before proving their verdict — including searches that found
	// no incumbent at all, which earlier versions silently folded into
	// Pruned. Zero means every verdict in this result is proven.
	Truncated int
	// BestBoundPct is the proven dual bound on the attack gain, in the
	// same percentage units as Attack.GainPct: for exact results it equals
	// the gain; for truncated results it is the largest surviving
	// relaxation bound across subproblems (at their final row-generation
	// round). +Inf means a search was truncated before proving any bound.
	BestBoundPct float64
	// Gap is the relative distance (BestBoundPct − gain)/(1 + gain)
	// between the proven bound and the best found gain: zero for exact
	// results.
	Gap float64
	// WallTime is the elapsed time of the producing call.
	WallTime time.Duration
}

// add accumulates another stats block (nil-safe on the argument). Counters
// sum; the bound fields merge by worst case (largest bound, largest gap), so
// an aggregate's BestBoundPct/Gap stay valid proofs for the merged whole.
func (s *SolverStats) add(o *SolverStats) {
	if o == nil {
		return
	}
	s.Subproblems += o.Subproblems
	s.Pruned += o.Pruned
	s.Nodes += o.Nodes
	s.SimplexIterations += o.SimplexIterations
	s.Rounds += o.Rounds
	s.WarmNodes += o.WarmNodes
	s.WarmFallbacks += o.WarmFallbacks
	s.Truncated += o.Truncated
	if o.BestBoundPct > s.BestBoundPct {
		s.BestBoundPct = o.BestBoundPct
	}
	if o.Gap > s.Gap {
		s.Gap = o.Gap
	}
}

// Method selects the single-level reformulation.
type Method int

// Reformulation methods.
const (
	// MethodComplementarity branches directly on KKT complementarity
	// pairs (default; no big-M constants).
	MethodComplementarity Method = iota + 1
	// MethodBigM is the paper's reformulation: binary μ with
	// λ ≤ M·μ, slack ≤ M·(1−μ).
	MethodBigM
)

func (m Method) String() string {
	switch m {
	case MethodComplementarity:
		return "complementarity"
	case MethodBigM:
		return "big-M"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options tune attack generation.
type Options struct {
	// Method selects the KKT reformulation (default
	// MethodComplementarity).
	Method Method
	// MaxRounds caps row-generation refinements (default 12).
	MaxRounds int
	// MaxNodes caps branch-and-bound nodes per subproblem (default
	// 50000).
	MaxNodes int
	// RelGap is the relative optimality gap for pruning (default the
	// milp package's 1e-9); larger values (e.g. 1e-4) speed up large
	// cases at a bounded optimality sacrifice.
	RelGap float64
	// Workers is the number of goroutines solving bilevel subproblems
	// concurrently (0 = one per CPU core, 1 = sequential). The attack
	// returned is identical for every worker count when subproblems solve
	// to completion: workers share an atomic incumbent bound that only
	// tightens pruning, and the winner is selected by a deterministic
	// (gain, target line, direction) tie-break after all subproblems
	// finish. Under a truncating MaxNodes budget the schedule can affect
	// which incumbent a cut-off search reports, so budgeted runs are only
	// reproducible at Workers = 1.
	Workers int
	// Metrics, when non-nil, receives core_*, milp_*, and lp_* counters
	// from the whole attack-generation stack. Nil costs ~nothing.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, emits one span per bilevel subproblem (with
	// target/dir/gain/status attributes) and per inner MILP solve.
	Tracer *telemetry.Tracer
	// Flight, when non-nil, records the run's solver flight data — every
	// B&B node, LP solve, row-generation round, incumbent update, and
	// subproblem outcome — into a bounded in-memory ring for post-run
	// reports (gridtool report / tree). Recording is purely
	// observational: the computed attack is bit-identical with the
	// recorder on or off.
	Flight *telemetry.Flight
	// Ctx, when non-nil, bounds the attack search: it is checked at run
	// entry, per fanned-out subproblem, per row-generation round, per
	// branch-and-bound node (via milp.Options.Ctx), and per dive/polish
	// candidate evaluation. A canceled or expired context makes the run
	// return the context's error (wrapped, errors.Is-compatible) — never a
	// partial attack, since which incumbent a cut-off search holds is
	// schedule-dependent and would break the determinism contract. The
	// check cadence bounds cancellation latency by one LP solve.
	Ctx context.Context
	// Warm, when non-nil, carries round-1 root-relaxation bases across
	// runs on the same grid (see WarmCache). Results are bit-identical
	// with or without it — the warm path certifies or falls back cold —
	// so it is purely a latency lever for repeat attacks.
	Warm *WarmCache
	// ws is the borrowed workspace for this task's inner-MILP LP relaxations,
	// set per fan-out task by checkoutWorkspaces (never by callers). The
	// dispatch model carries its own workspace separately.
	ws *lp.Workspace
	// The remaining fields are A/B switches set only by the gates, through
	// export_test.go; the zero values are the production path.
	//
	// monitorAll includes every rated line's constraints in the inner
	// problem up front instead of growing the set by row generation: the
	// exact reference row generation is tested against.
	monitorAll bool
	// noWarmStart cold-solves every LP relaxation: no basis reuse across
	// branch-and-bound nodes, row-generation rounds, or runs (Warm is
	// ignored). Attacks are certified-identical either way.
	noWarmStart bool
	// noDive turns off the discovery layer around the KKT search: the
	// per-subproblem dives, the converged-attack polish, and the winner's
	// rich refinement, so attacks come from branch-and-bound alone.
	noDive bool
}

// bigM is the big-M constant of MethodBigM, mirroring the paper's "M is
// infinity (chosen as a significantly large number)".
const bigM = 1e5

func (o Options) withDefaults() Options {
	if o.Method == 0 {
		o.Method = MethodComplementarity
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 12
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 50000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// forWorker returns a Knowledge whose Model is a shallow clone of k's —
// sharing the immutable network, sensitivity matrix, and PTDF, with its own
// warm-start memory — so a solver worker can run dispatches without racing
// its siblings. TrueDLR is shared: it is read-only throughout the solve.
func (k *Knowledge) forWorker() *Knowledge {
	return &Knowledge{Model: k.Model.ShallowClone(), TrueDLR: k.TrueDLR, memo: k.memo}
}

// ratingsUnder builds the full effective rating vector for a manipulation.
func (k *Knowledge) ratingsUnder(dlr map[int]float64) []float64 {
	return k.Model.Net.Ratings(dlr)
}

// violationGain computes the paper's U_cap for a flow vector: the largest
// percentage violation of true DLR ratings in either direction, clamped at
// zero.
func (k *Knowledge) violationGain(flows []float64) (float64, int, int) {
	g, line, dir := k.violationMargin(flows)
	if g <= 0 {
		return 0, -1, 0
	}
	return g, line, dir
}

// violationMargin is the unclamped variant of violationGain: negative
// values measure how far the most-loaded DLR line is from violation, which
// gives search heuristics a gradient inside the safe region.
func (k *Knowledge) violationMargin(flows []float64) (float64, int, int) {
	bestGain, bestLine, bestDir := math.Inf(-1), -1, 0
	for li, ud := range k.TrueDLR {
		for _, dir := range [2]float64{1, -1} {
			g := 100 * (dir*flows[li]/ud - 1)
			if g > bestGain {
				bestGain, bestLine, bestDir = g, li, int(dir)
			}
		}
	}
	return bestGain, bestLine, bestDir
}

// Evaluation is the outcome of running the operator's ED under a specific
// manipulation — the ground truth the bilevel model predicts.
type Evaluation struct {
	// Feasible reports whether the operator's ED admitted the ratings
	// (false means the manipulation would trip an alarm — not stealthy).
	Feasible bool
	// GainPct is U_cap realized under the DC model.
	GainPct float64
	// WorstLine and Direction locate the worst violation (-1 when none).
	WorstLine, Direction int
	// Dispatch is the operator's resulting ED solution (nil when
	// infeasible).
	Dispatch *dispatch.Result
	// Stats summarizes the dispatch solver work behind the evaluation.
	// A value (not a pointer): evaluations run on heuristic hot paths
	// where an extra allocation per call is measurable.
	Stats SolverStats
}

// EvaluateAttack runs the operator's dispatch under manipulated ratings and
// scores the realized violation of true ratings. It is used to verify
// bilevel predictions and to score baseline attackers.
func (k *Knowledge) EvaluateAttack(dlr map[int]float64) (*Evaluation, error) {
	if bad := k.Model.Net.CheckDLRBounds(dlr); len(bad) > 0 {
		return nil, fmt.Errorf("%w on lines %v", ErrDLRBounds, bad)
	}
	start := time.Now()
	res, err := k.Model.Solve(k.ratingsUnder(dlr))
	if errors.Is(err, dispatch.ErrInfeasible) {
		return &Evaluation{
			Feasible: false, WorstLine: -1,
			Stats: SolverStats{WallTime: time.Since(start)},
		}, nil
	}
	if err != nil {
		return nil, err
	}
	gain, line, dir := k.violationGain(res.Flows)
	return &Evaluation{
		Feasible: true, GainPct: quantize(gain, gainQuantum), WorstLine: line, Direction: dir,
		Dispatch: res,
		Stats: SolverStats{
			SimplexIterations: res.Iterations,
			WallTime:          time.Since(start),
		},
	}, nil
}

// clampToBand snaps a rating into a line's plausibility band.
func clampToBand(l *grid.Line, v float64) float64 {
	return math.Max(l.DLRMin, math.Min(l.DLRMax, v))
}

// Reporting quanta. Extracted manipulated ratings and reported gains are
// rounded onto fixed grids before leaving the solver: roundoff from a
// different pivot path (a warm versus a cold solve, another basis kernel)
// perturbs the same optimum's coordinates by a few ulps, and snapping to a
// grid far coarser than that — yet far finer than solver tolerance — makes
// reported attacks bit-identical regardless of the path that produced them.
const (
	ratingQuantum = 1e-6 // MVA: micro-MVA resolution on manipulated ratings
	gainQuantum   = 1e-9 // percentage points on reported U_cap gains
)

// quantize rounds v onto the grid with spacing q.
func quantize(v, q float64) float64 {
	return math.Round(v/q) * q
}
