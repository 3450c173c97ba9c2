package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/milp"
	"github.com/edsec/edattack/internal/telemetry"
)

// ineqKind labels one inner-problem inequality row.
type ineqKind int

const (
	genUpper ineqKind = iota + 1 // p_i ≤ Pmax_i
	genLower                     // −p_i ≤ −Pmin_i
	flowPos                      // M_l·p + f0_l ≤ u_l
	flowNeg                      // −M_l·p − f0_l ≤ u_l
)

// ineqRow describes one inner inequality in the KKT system.
type ineqRow struct {
	kind ineqKind
	gen  int // for gen rows
	line int // for flow rows
}

// precomp caches the solve-invariant scaffolding every one of Algorithm 1's
// 2·|E_D| subproblems shares: the DLR variable order, the initial monitored
// line set (whose computation costs a full dispatch solve — previously paid
// once per subproblem), the KKT inequality-row layout for that set, and a
// feasible basis of the round-1 KKT relaxation. It is built once before the
// fan-out and read concurrently by all workers, so nothing in it may be
// mutated after construction.
type precomp struct {
	dlrOrder  []int
	monitored []int
	rows      []ineqRow // row layout for the initial monitored set
	// rootBasis is a primal-feasible basis of the round-1 relaxation (nil
	// when warm starts are off or the relaxation is infeasible). Every
	// subproblem's round-1 LP has the same rows and bounds — only the
	// objective differs — so one phase I serves all of their roots, each of
	// which then starts in phase II. lp.Basis is immutable, so the workers
	// share it. rootIters is the pivot count of the solve that found it.
	rootBasis *lp.Basis
	rootIters int
}

// precompute builds the shared scaffolding on the caller's model (the one
// model mutation — the dispatch warm start inside initialMonitoredSet —
// happens here, before any worker exists). Computing the root basis here,
// not in whichever subproblem runs first, keeps every subproblem's search
// independent of the worker count.
func precompute(k *Knowledge, o Options) *precomp {
	p := &precomp{
		dlrOrder:  k.Model.Net.DLRLines(),
		monitored: initialMonitoredSet(k, o),
	}
	p.rows = buildRows(len(k.Model.Net.Gens), p.monitored)
	if !o.noWarmStart && len(p.dlrOrder) > 0 {
		p.rootBasis, p.rootIters = rootFeasibleBasis(k, o, p)
	}
	return p
}

// rootFeasibleBasis solves the round-1 KKT relaxation once under a zero
// objective and returns its final basis: the end of phase I, feasible for
// every subproblem's round-1 root — and its pivot count. The target only
// picks an objective, which is then cleared.
func rootFeasibleBasis(k *Knowledge, o Options, pre *precomp) (*lp.Basis, int) {
	sp := newSubproblem(k, pre.dlrOrder[0], 1, pre.monitored, o, pre)
	prob, err := sp.build()
	if err != nil {
		return nil, 0
	}
	base := prob.Base
	if err := base.SetObjective(make([]float64, base.NumVars()), false); err != nil {
		return nil, 0
	}
	sol, err := lp.SolveWith(base, lp.Options{
		CaptureBasis: true,
		Metrics:      o.Metrics,
		Ctx:          o.Ctx,
	})
	if err != nil {
		return nil, 0
	}
	if sol.Status != lp.Optimal {
		return nil, sol.Iterations
	}
	return sol.Basis, sol.Iterations
}

// buildRows lays out the inner problem's inequality rows for a monitored
// line set: generator upper bounds, generator lower bounds, then a ± flow
// pair per monitored line.
func buildRows(ng int, monitored []int) []ineqRow {
	rows := make([]ineqRow, 0, 2*ng+2*len(monitored))
	for i := 0; i < ng; i++ {
		rows = append(rows, ineqRow{kind: genUpper, gen: i})
	}
	for i := 0; i < ng; i++ {
		rows = append(rows, ineqRow{kind: genLower, gen: i})
	}
	for _, li := range monitored {
		rows = append(rows, ineqRow{kind: flowPos, line: li})
		rows = append(rows, ineqRow{kind: flowNeg, line: li})
	}
	return rows
}

// subproblem is one (target line, direction) instance of the paper's
// decomposition: maximize 100·(dir·f_t/u^d_t − 1) subject to the operator's
// KKT conditions under manipulated DLR ratings.
type subproblem struct {
	k         *Knowledge
	target    int
	dir       float64
	monitored []int // line indices whose flow constraints the inner ED sees
	dlrOrder  []int // DLR line indices in variable order
	method    Method

	// variable offsets in the master LP
	nx, np, ni           int
	xOff, pOff, sOff     int
	lamOff, nuIdx, muOff int
	rows                 []ineqRow
	lastX                []float64 // heuristic memoization of the last attack vector

	metrics   *telemetry.Registry
	ctx       context.Context // bounds dive/polish candidate evaluation
	checkSkip skipHook        // Options.checkSkip
	span      *telemetry.Span // parents the inner MILP solve spans
	// round is the 1-based row-generation round this instance solves,
	// stamped onto flight events so search trees attribute to the right
	// solve.
	round int

	// solvedNodes and solvedLPIters record the last solveOnce's work even
	// when it yields no usable attack (pruned or infeasible); the warm
	// counters split the nodes into basis-reuse hits and fallbacks.
	// solvedTruncated marks a search the node budget cut off before it
	// proved its verdict; solvedBound is that search's proven bound in the
	// LP objective scale (equal to the objective for proven results).
	solvedNodes, solvedLPIters         int
	solvedWarmNodes, solvedWarmFwdFall int
	solvedTruncated                    bool
	solvedBound                        float64

	// solvedBase and solvedRootBasis carry the solved LP and its root
	// relaxation basis to the next row-generation round, where the basis is
	// remapped onto the grown problem (old rows are a prefix of new rows).
	solvedBase      *lp.Problem
	solvedRootBasis *lp.Basis

	// warmSeed, when non-nil, seeds the first round's root relaxation: a
	// prior run's optimal basis (WarmCache) when there is one, else the
	// run's shared feasible root basis (precomp.rootBasis). Later rounds
	// warm-start from the previous round instead.
	warmSeed *lp.Basis
}

// newSubproblem assembles the index bookkeeping for a monitored line set.
// The DLR order is pre's; while the monitored set is still the initial one,
// so is the row layout (both shared read-only).
func newSubproblem(k *Knowledge, target int, dir float64, monitored []int, o Options, pre *precomp) *subproblem {
	s := &subproblem{
		k: k, target: target, dir: dir,
		monitored: append([]int(nil), monitored...),
		dlrOrder:  pre.dlrOrder,
		method:    o.Method,
		metrics:   o.Metrics,
		ctx:       o.Ctx,
		checkSkip: o.checkSkip,
	}
	ng := len(k.Model.Net.Gens)
	if len(monitored) == len(pre.monitored) {
		s.rows = pre.rows
	} else {
		s.rows = buildRows(ng, s.monitored)
	}
	s.nx = len(s.dlrOrder)
	s.np = ng
	s.ni = len(s.rows)
	s.xOff = 0
	s.pOff = s.nx
	s.sOff = s.pOff + s.np
	s.lamOff = s.sOff + s.ni
	s.nuIdx = s.lamOff + s.ni
	s.muOff = s.nuIdx + 1 // big-M binaries (if used)
	return s
}

// dlrVar returns the master variable index of line li's manipulated rating,
// or -1 if li is not a DLR line.
func (s *subproblem) dlrVar(li int) int {
	for k, l := range s.dlrOrder {
		if l == li {
			return s.xOff + k
		}
	}
	return -1
}

// build constructs the single-level program.
func (s *subproblem) build() (*milp.Problem, error) {
	k := s.k
	net := k.Model.Net
	gens := net.Gens
	nvars := s.muOff
	if s.method == MethodBigM {
		nvars += s.ni
	}
	base := lp.NewProblem(nvars)

	// Variable bounds.
	for idx, li := range s.dlrOrder {
		l := &net.Lines[li]
		if err := base.SetBounds(s.xOff+idx, l.DLRMin, l.DLRMax); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	for i := range gens {
		if err := base.SetBounds(s.pOff+i, gens[i].Pmin, gens[i].Pmax); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	for j := 0; j < s.ni; j++ {
		if err := base.SetBounds(s.sOff+j, 0, math.Inf(1)); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if err := base.SetBounds(s.lamOff+j, 0, math.Inf(1)); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	// ν free (default bounds).

	// Objective: maximize 100·dir·f_t/u^d_t (constant −100 added by the
	// caller). f_t = M_t·p + f0_t.
	ud := k.TrueDLR[s.target]
	obj := make([]float64, nvars)
	mt := k.Model.M.RawRow(s.target)
	for i := range gens {
		obj[s.pOff+i] = 100 * s.dir * mt[i] / ud
	}
	if err := base.SetObjective(obj, true); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Supply-demand balance: Σ p_i = D (eq. 6).
	idx := make([]int, len(gens))
	ones := make([]float64, len(gens))
	for i := range gens {
		idx[i] = s.pOff + i
		ones[i] = 1
	}
	if _, err := base.AddSparseConstraint(idx, ones, lp.EQ, k.Model.Demand); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Primal feasibility with explicit slacks: g_j(p) − h_j(x) + s_j = 0.
	for j, row := range s.rows {
		switch row.kind {
		case genUpper:
			if _, err := base.AddSparseConstraint(
				[]int{s.pOff + row.gen, s.sOff + j}, []float64{1, 1},
				lp.EQ, gens[row.gen].Pmax); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		case genLower:
			if _, err := base.AddSparseConstraint(
				[]int{s.pOff + row.gen, s.sOff + j}, []float64{-1, 1},
				lp.EQ, -gens[row.gen].Pmin); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		case flowPos, flowNeg:
			sign := 1.0
			if row.kind == flowNeg {
				sign = -1
			}
			li := row.line
			mrow := k.Model.M.RawRow(li)
			cidx := make([]int, 0, len(gens)+2)
			cval := make([]float64, 0, len(gens)+2)
			for i := range gens {
				if mrow[i] != 0 {
					cidx = append(cidx, s.pOff+i)
					cval = append(cval, sign*mrow[i])
				}
			}
			cidx = append(cidx, s.sOff+j)
			cval = append(cval, 1)
			rhs := -sign * k.Model.Base[li]
			if xv := s.dlrVar(li); xv >= 0 {
				cidx = append(cidx, xv)
				cval = append(cval, -1)
			} else {
				rhs += net.Lines[li].RateMVA
			}
			if _, err := base.AddSparseConstraint(cidx, cval, lp.EQ, rhs); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}

	// Stationarity (eq. 16c): 2a_i·p_i + b_i + ν + λᵀ(∂g/∂p_i) = 0.
	for i := range gens {
		cidx := []int{s.pOff + i, s.nuIdx}
		cval := []float64{2 * gens[i].CostA, 1}
		for j, row := range s.rows {
			var coeff float64
			switch row.kind {
			case genUpper:
				if row.gen == i {
					coeff = 1
				}
			case genLower:
				if row.gen == i {
					coeff = -1
				}
			case flowPos:
				coeff = k.Model.M.At(row.line, i)
			case flowNeg:
				coeff = -k.Model.M.At(row.line, i)
			}
			if coeff != 0 {
				cidx = append(cidx, s.lamOff+j)
				cval = append(cval, coeff)
			}
		}
		if _, err := base.AddSparseConstraint(cidx, cval, lp.EQ, -gens[i].CostB); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	prob := milp.NewProblem(base)
	switch s.method {
	case MethodComplementarity:
		for j := 0; j < s.ni; j++ {
			if err := prob.AddComplementarityPair(s.lamOff+j, s.sOff+j); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	case MethodBigM:
		// λ_j ≤ M·μ_j and s_j ≤ M·(1−μ_j) with binary μ_j (eq. 16d).
		for j := 0; j < s.ni; j++ {
			mu := s.muOff + j
			if err := prob.SetBinary(mu); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			if _, err := base.AddSparseConstraint(
				[]int{s.lamOff + j, mu}, []float64{1, -bigM}, lp.LE, 0); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			if _, err := base.AddSparseConstraint(
				[]int{s.sOff + j, mu}, []float64{1, bigM}, lp.LE, bigM); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown method %v", s.method)
	}
	return prob, nil
}

// remapRootBasis translates the previous round's root-relaxation basis onto
// the next round's grown problem. Row generation only ever appends monitored
// lines, so the old inequality rows are a prefix of the new ones; every old
// variable and constraint has a computable new index, and the rows added for
// fresh flow pairs keep their artificial basic (zero cost, so the remapped
// basis stays dual-feasible in the old columns). Returns nil — meaning "cold
// solve the new root" — whenever the layouts are not a clean extension.
func (s *subproblem) remapRootBasis(next *subproblem, nextBase *lp.Problem) *lp.Basis {
	if s.solvedRootBasis == nil || s.solvedBase == nil {
		return nil
	}
	if s.method != next.method || s.np != next.np || s.nx != next.nx || s.ni > next.ni {
		return nil
	}
	for j := 0; j < s.ni; j++ {
		if s.rows[j] != next.rows[j] {
			return nil
		}
	}
	ng := s.np
	oldNvars := s.muOff
	if s.method == MethodBigM {
		oldNvars += s.ni
	}
	varMap := make([]int, oldNvars)
	for j := 0; j < s.nx+s.np; j++ { // x and p blocks are identical
		varMap[j] = j
	}
	for j := 0; j < s.ni; j++ {
		varMap[s.sOff+j] = next.sOff + j
		varMap[s.lamOff+j] = next.lamOff + j
	}
	varMap[s.nuIdx] = next.nuIdx
	if s.method == MethodBigM {
		for j := 0; j < s.ni; j++ {
			varMap[s.muOff+j] = next.muOff + j
		}
	}
	// Constraint rows in build() order: balance, one primal-feasibility row
	// per inequality, ng stationarity rows, then (big-M only) two LE rows
	// per inequality.
	oldRows := 1 + s.ni + ng
	if s.method == MethodBigM {
		oldRows += 2 * s.ni
	}
	rowMap := make([]int, oldRows)
	rowMap[0] = 0
	for j := 0; j < s.ni; j++ {
		rowMap[1+j] = 1 + j
	}
	for i := 0; i < ng; i++ {
		rowMap[1+s.ni+i] = 1 + next.ni + i
	}
	if s.method == MethodBigM {
		for r := 0; r < 2*s.ni; r++ {
			rowMap[1+s.ni+ng+r] = 1 + next.ni + ng + r
		}
	}
	return s.solvedRootBasis.Remap(s.solvedBase, nextBase, varMap, rowMap)
}

// subResult is a solved subproblem before row-generation verification.
type subResult struct {
	gain    float64 // objective including the −100 constant
	dlr     map[int]float64
	p       []float64
	nodes   int
	lpIters int
	exact   bool
}

// masterObj converts a realized attacker gain (U_cap percentage on the
// target) into this subproblem's LP objective scale.
func (s *subproblem) masterObj(gain float64) float64 {
	ud := s.k.TrueDLR[s.target]
	return gain + 100 - 100*s.dir*s.k.Model.Base[s.target]/ud
}

// heuristic rounds a node relaxation point into a true feasible incumbent:
// it clamps the relaxation's DLR variables into the plausibility band, runs
// the operator's actual ED under them, and scores the realized flow on the
// target line. The resulting (x, p) pair is feasible for the master by
// construction (the ED solution satisfies its own KKT conditions).
func (s *subproblem) heuristic(relaxX []float64) (float64, []float64, bool) {
	net := s.k.Model.Net
	dlr := make(map[int]float64, s.nx)
	for idx, li := range s.dlrOrder {
		dlr[li] = clampToBand(&net.Lines[li], relaxX[s.xOff+idx])
	}
	// Relaxations at adjacent nodes usually keep the same attack vector;
	// skip the (relatively expensive) ED re-solve when x is unchanged.
	if s.lastX != nil {
		same := true
		for idx, li := range s.dlrOrder {
			if math.Abs(dlr[li]-s.lastX[idx]) > 1e-7 {
				same = false
				break
			}
		}
		if same {
			return 0, nil, false
		}
	}
	s.lastX = make([]float64, s.nx)
	for idx, li := range s.dlrOrder {
		s.lastX[idx] = dlr[li]
	}
	res, err := s.k.Model.Solve(s.k.ratingsUnder(dlr))
	if err != nil {
		return 0, nil, false
	}
	ud := s.k.TrueDLR[s.target]
	obj := 100 * s.dir * (res.Flows[s.target] - s.k.Model.Base[s.target]) / ud
	point := make([]float64, len(relaxX))
	for idx, li := range s.dlrOrder {
		point[s.xOff+idx] = dlr[li]
	}
	copy(point[s.pOff:s.pOff+s.np], res.P)
	return obj, point, true
}

// polishPasses caps the coordinate-ascent rounds of the post-convergence
// polish; each pass scans every manipulated line's candidate set once.
const polishPasses = 6

// diveWideThreshold splits instances into the IEEE sizes (case118 has
// eight DLR lines) and the wide synthetic interconnections above it. On
// wide instances every candidate evaluation is a several-hundred-bus
// dispatch QP and the dives dominate the whole attack wall, so the
// non-rich polish screens with a leaner candidate set, fewer passes, and
// a single dive start; the winner's rich refinement then restores
// precision on the one subproblem where it matters. The cut is a pure
// function of the instance, so determinism across search trajectories and
// worker schedules is unaffected.
const diveWideThreshold = 8

// polish runs a deterministic coordinate ascent over the manipulated-rating
// space around a converged attack: per line, a fixed candidate set (band
// edges, a coarse grid across the plausibility band, and relative steps off
// the current value) is scored by the operator's actual ED, and the best
// strict improvement is kept; passes repeat until a full scan finds nothing.
// Every candidate the ED accepts is a genuine attack — the dispatch honors
// all manipulated ratings, so no unmonitored line is violated — which makes
// the polished result valid without another row-generation round. The scan
// order, candidate set, and tie-breaks are pure functions of the instance,
// so the polish preserves bit-identical results across search trajectories
// and worker schedules. rich widens the candidate set (a finer band grid and
// extra relative steps): ~2× the dispatch solves for a deeper ascent, used
// to refine a single winner rather than every dive. A candidate that
// lineScan proves cannot change the scan (its line stays slack under a
// strictly convex ED, or a looser rating was already infeasible) is dropped
// unsolved and counted in core_polish_skipped_total.
func (s *subproblem) polish(dlr map[int]float64, rich bool) (float64, map[int]float64, *dispatch.Result, bool) {
	net := s.k.Model.Net
	ud := s.k.TrueDLR[s.target]
	eval := func(cand map[int]float64) (float64, *dispatch.Result, error) {
		// A canceled context stops the coordinate ascent at the next
		// candidate — the surrounding round/run checks then surface the
		// context error, so a cut-short polish never escapes as a result.
		if s.ctx != nil && s.ctx.Err() != nil {
			return 0, nil, s.ctx.Err()
		}
		res, err := s.k.solveMemo(s.dlrOrder, cand)
		if err != nil {
			return 0, nil, err
		}
		return 100*s.dir*res.Flows[s.target]/ud - 100, res, nil
	}
	cur := make(map[int]float64, len(dlr))
	for li, v := range dlr {
		cur[li] = v
	}
	// A choked starting point (ratings pinned to exact flows) can make the
	// ED infeasible; start from -Inf and let the scan find feasible ground.
	// bestRes is then nil, and no candidate is skipped as slack until a
	// feasible one is found.
	bestGain, bestRes := math.Inf(-1), (*dispatch.Result)(nil)
	if g, res, err := eval(cur); err == nil {
		bestGain, bestRes = g, res
	}
	// bestRes is the ED at cur whenever a line's scan starts: lineScan's
	// first proof base.
	scan := lineScan{convex: s.k.Model.StrictlyConvex()}
	skipped := 0
	wide := !rich && len(s.dlrOrder) > diveWideThreshold
	passes := polishPasses
	if wide {
		passes = 3
	}
	for pass := 0; pass < passes; pass++ {
		moved := false
		for _, li := range s.dlrOrder {
			l := &net.Lines[li]
			width := l.DLRMax - l.DLRMin
			orig := cur[li]
			var cands []float64
			if wide {
				cands = []float64{
					l.DLRMin, l.DLRMax,
					orig - 0.08*width, orig + 0.08*width,
					l.DLRMin + 0.5*width,
				}
			} else {
				cands = []float64{
					l.DLRMin, l.DLRMax,
					orig - 0.08*width, orig - 0.02*width,
					orig + 0.02*width, orig + 0.08*width,
				}
				grid := 4
				if rich {
					grid = 8
					cands = append(cands, orig-0.005*width, orig+0.005*width)
				}
				for f := 1; f < grid; f++ {
					cands = append(cands, l.DLRMin+float64(f)/float64(grid)*width)
				}
			}
			bestV, found := orig, false
			scan.start(li, bestRes, orig)
			for _, c := range cands {
				v := clampToBand(l, quantize(c, ratingQuantum))
				if v == orig || (found && v == bestV) {
					continue
				}
				cur[li] = v
				if kind := scan.skip(v); kind != noSkip {
					skipped++
					if s.checkSkip != nil {
						s.checkSkip.check(s.k, kind, scan.slack, cur)
					}
					continue
				}
				g, res, err := eval(cur)
				if errors.Is(err, dispatch.ErrInfeasible) {
					scan.failed(v)
				}
				if err != nil {
					continue
				}
				scan.solved(res, v)
				if g > bestGain+1e-9 {
					bestGain, bestRes, bestV, found = g, res, v, true
				}
			}
			cur[li] = bestV
			if found {
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	if skipped > 0 {
		s.k.Model.Metrics.Counter("core_polish_skipped_total").Add(int64(skipped))
	}
	if bestRes == nil {
		return 0, nil, nil, false
	}
	return bestGain, cur, bestRes, true
}

// dive builds a deterministic incumbent for this subproblem before any
// branch-and-bound work: it polishes a fixed set of starting rating vectors
// — the no-attack statics and the band floor — toward the target and keeps
// the best result (first start wins ties). The starts and the polish are
// pure functions of the instance, so the dive is identical under every node
// order and worker schedule, and its attack is genuinely feasible — the ED
// it scores honors all manipulated ratings.
func (s *subproblem) dive() (float64, map[int]float64, *dispatch.Result, bool) {
	net := s.k.Model.Net
	starts := make([]map[int]float64, 2)
	for i := range starts {
		starts[i] = make(map[int]float64, len(s.dlrOrder))
	}
	for _, li := range s.dlrOrder {
		l := &net.Lines[li]
		starts[0][li] = clampToBand(l, l.RateMVA)
		starts[1][li] = l.DLRMin
	}
	if len(s.dlrOrder) > diveWideThreshold {
		// Wide instances: the no-attack statics are the one start worth a
		// full screen (see diveWideThreshold).
		starts = starts[:1]
	}
	bestGain, haveBest := 0.0, false
	var bestDLR map[int]float64
	var bestRes *dispatch.Result
	for _, start := range starts {
		if g, dlr, res, ok := s.polish(start, false); ok && (!haveBest || g > bestGain+gainQuantum/2) {
			bestGain, bestDLR, bestRes, haveBest = g, dlr, res, true
		}
	}
	return bestGain, bestDLR, bestRes, haveBest
}

// solveOnce builds and solves the subproblem for the current monitored set.
// incumbent is a static pruning seed in the LP objective scale; bound is the
// live shared incumbent bound polled per branch-and-bound node. prev, when
// non-nil, is the previous row-generation round's subproblem: its root basis
// is remapped onto this round's grown problem so the re-solve warm-starts
// instead of repeating phase I from scratch.
func (s *subproblem) solveOnce(o Options, incumbent *float64, bound milp.BoundSource, prev *subproblem) (*subResult, error) {
	prob, err := s.build()
	if err != nil {
		return nil, err
	}
	s.solvedBase = prob.Base
	var warmRoot *lp.Basis
	if prev != nil && !o.noWarmStart {
		warmRoot = prev.remapRootBasis(s, prob.Base)
	} else if s.warmSeed != nil && !o.noWarmStart {
		warmRoot = s.warmSeed
	}
	sol, err := milp.SolveWith(prob, milp.Options{
		MaxNodes:         o.MaxNodes,
		Incumbent:        incumbent,
		Bound:            bound,
		Gap:              o.RelGap,
		Heuristic:        s.heuristic,
		WarmBasis:        warmRoot,
		DisableWarmStart: o.noWarmStart,
		LP:               lp.Options{Workspace: o.ws},
		Ctx:              o.Ctx,
		Metrics:          s.metrics,
		Span:             s.span,
		Flight:           o.Flight,
		FlightTemplate:   telemetry.FlightEvent{Target: s.target, Dir: int(s.dir), Round: s.round},
	})
	if sol != nil {
		s.solvedNodes = sol.Nodes
		s.solvedLPIters = sol.LPIterations
		s.solvedWarmNodes = sol.WarmNodes
		s.solvedWarmFwdFall = sol.WarmFallbacks
		s.solvedRootBasis = sol.RootBasis
		s.solvedTruncated = sol.Status == milp.NodeLimit
		s.solvedBound = sol.BestBound
	}
	if err != nil {
		return nil, fmt.Errorf("core: subproblem line %d dir %+g: %w", s.target, s.dir, err)
	}
	// Big-M reformulations go numerically wrong exactly when multipliers
	// approach the constant; record how close this solve came.
	if s.method == MethodBigM && sol.X != nil && s.metrics != nil {
		maxMult := 0.0
		for j := 0; j < s.ni; j++ {
			if v := sol.X[s.lamOff+j]; v > maxMult {
				maxMult = v
			}
			if v := sol.X[s.sOff+j]; v > maxMult {
				maxMult = v
			}
		}
		ratio := maxMult / bigM
		s.metrics.Gauge("core_bigm_max_ratio").SetMax(ratio)
		if ratio > 0.99 {
			s.metrics.Counter("core_bigm_saturated_total").Inc()
		}
	}
	exact := true
	switch sol.Status {
	case milp.Optimal:
	case milp.Infeasible:
		return nil, nil // no stealthy manipulation admits a feasible ED here
	case milp.NodeLimit:
		if sol.X == nil {
			return nil, nil // truncated without beating the seed: no improvement found
		}
		exact = false
	default:
		return nil, fmt.Errorf("core: subproblem line %d dir %+g: unexpected status %v", s.target, s.dir, sol.Status)
	}
	dlr := make(map[int]float64, s.nx)
	for idx, li := range s.dlrOrder {
		// Quantize-then-clamp: interior ratings land on the reporting grid,
		// ratings at a band edge stay exactly on the edge.
		dlr[li] = clampToBand(&s.k.Model.Net.Lines[li], quantize(sol.X[s.xOff+idx], ratingQuantum))
	}
	p := make([]float64, s.np)
	copy(p, sol.X[s.pOff:s.pOff+s.np])
	// The LP objective covers only the variable part 100·dir·(M_t·p)/u^d;
	// restore the affine constant 100·dir·f0_t/u^d − 100.
	ud := s.k.TrueDLR[s.target]
	gain := sol.Objective + 100*s.dir*s.k.Model.Base[s.target]/ud - 100
	return &subResult{
		gain:    gain,
		dlr:     dlr,
		p:       p,
		nodes:   sol.Nodes,
		lpIters: sol.LPIterations,
		exact:   exact,
	}, nil
}

// solveSubproblemSeeded solves one (target, direction) bilevel subproblem of
// an Algorithm 1 run, growing the monitored line set by row generation until
// the predicted dispatch is feasible for the operator's full constraint set.
// o carries the run's defaults, and pre its hoisted solve-invariant
// scaffolding. Gains already proven by sibling subproblems, published in
// inc, seed the branch-and-bound search statically (per row-generation
// round) and dynamically (polled per node), both backed off by pruneSeed so
// equal-quality optima survive under any schedule. When nothing here beats
// the shared bound the function returns a nil attack. The stats block is
// returned even when no attack is — a pruned, truncated, or infeasible
// subproblem still reports its work, its Truncated count, and its proven
// bound, so the surrounding run can aggregate honest totals. A non-nil
// parent span (or o.Tracer) yields one "core.subproblem" span per call.
func solveSubproblemSeeded(k *Knowledge, target int, dir int, o Options, inc *incumbentBound, pre *precomp, parent *telemetry.Span) (*Attack, *SolverStats, error) {
	net := k.Model.Net

	start := time.Now()
	span := telemetry.StartSpan(o.Tracer, parent, "core.subproblem")
	span.SetAttr("target", target)
	span.SetAttr("dir", dir)
	outcome := "error"
	if o.Metrics != nil {
		o.Metrics.Counter("core_subproblems_total").Inc()
	}
	if span != nil {
		defer func() {
			span.SetAttr("status", outcome)
			span.End()
		}()
	}

	monitored := append([]int(nil), pre.monitored...)
	inSet := make(map[int]bool, len(monitored))
	for _, li := range monitored {
		inSet[li] = true
	}

	// One live-bound adapter per call: masterObj is affine in the gain with
	// unit slope, so the conversion to this subproblem's LP objective scale
	// is the constant offset masterObj(0).
	sb := &subproblemBound{
		inc:    inc,
		offset: 100 - 100*float64(dir)*k.Model.Base[target]/k.TrueDLR[target],
		relGap: o.RelGap,
	}

	// Deterministic dive: before any branch-and-bound work, polish the
	// no-attack rating vector toward this target on the true ED. The start
	// point and the coordinate ascent are pure functions of the instance, so
	// the dive gain is identical under every search trajectory and worker schedule;
	// offering it tightens pruning for every sibling, and the dive attack is
	// what this subproblem returns when the search itself proves nothing
	// better (pruned or truncated) — the reduced KKT encoding cannot certify
	// attacks whose binding lines sit outside the monitored set, but the
	// dive's dispatch honors all manipulated ratings, so it is genuinely
	// feasible as-is.
	var (
		diveGain float64
		diveDLR  map[int]float64
		diveRes  *dispatch.Result
		haveDive bool
	)
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: subproblem line %d dir %+d aborted: %w", target, dir, err)
		}
	}
	if !o.noDive {
		diveSP := newSubproblem(k, target, float64(dir), monitored, o, pre)
		diveGain, diveDLR, diveRes, haveDive = diveSP.dive()
	}
	if haveDive {
		diveGain = quantize(diveGain, gainQuantum)
		if diveGain <= 0 {
			haveDive = false
		}
	}
	if haveDive {
		inc.Offer(diveGain)
		if o.Flight != nil {
			o.Flight.Record(telemetry.FlightEvent{
				Kind:      telemetry.FlightIncumbent,
				Target:    target,
				Dir:       dir,
				Incumbent: diveGain,
				Label:     "dive",
			})
		}
	}

	var totalNodes, totalIters, rounds int
	var totalWarm, totalFallbacks, totalTrunc int
	var prevRound *subproblem
	hadSeed := false
	exact := true

	// boundGain/gapRel track the latest round's proven dual bound in gain
	// percentage units. Intermediate rounds' reduced problems bound their
	// own optimum; the converged (or final truncated) round's bound is the
	// one reported. gapRel normalizes against the best gain known here
	// (found or seeded), +Inf when a truncated search proved nothing.
	boundGain, gapRel := 0.0, 0.0
	noteBound := func(sp *subproblem, ref float64, haveRef bool) {
		boundGain = sp.solvedBound - sp.masterObj(0)
		if boundGain < 0 {
			boundGain = 0
		}
		switch {
		case !sp.solvedTruncated:
			gapRel = 0
		case haveRef:
			gapRel = (boundGain - ref) / (1 + math.Abs(ref))
			if gapRel < 0 {
				gapRel = 0
			}
		default:
			boundGain, gapRel = math.Inf(1), math.Inf(1)
		}
	}
	mkStats := func() *SolverStats {
		return &SolverStats{
			Subproblems:       1,
			Nodes:             totalNodes,
			SimplexIterations: totalIters,
			Rounds:            rounds,
			WarmNodes:         totalWarm,
			WarmFallbacks:     totalFallbacks,
			Truncated:         totalTrunc,
			BestBoundPct:      boundGain,
			Gap:               gapRel,
			WallTime:          time.Since(start),
		}
	}
	// mkAttack reports an attack in choked-canonical form; see canonicalDLR
	// for the canonicalization argument. rawDLR keeps the pre-canonical
	// ratings for the winner's final rich polish (the choked form can be
	// dispatch-infeasible as a polish starting point).
	mkAttack := func(dlr map[int]float64, gain float64, p, flows []float64, isExact bool) *Attack {
		return &Attack{
			DLR:            canonicalDLR(k, dlr, flows),
			rawDLR:         dlr,
			TargetLine:     target,
			Direction:      dir,
			GainPct:        gain,
			PredictedP:     p,
			PredictedFlows: flows,
			PredictedCost:  k.Model.Cost(p),
			Nodes:          totalNodes,
			Rounds:         rounds,
			Exact:          isExact,
			Stats:          mkStats(),
		}
	}

	// Flight recording and round latency. finishRound closes out one
	// row-generation round; the deferred FlightSubproblem event captures
	// the outcome whichever return path is taken.
	fl := o.Flight
	roundTimed := fl != nil || o.Metrics != nil
	var roundStart time.Time
	var finalGain float64
	finishRound := func(sp *subproblem, violated int, label string) {
		if !roundTimed {
			return
		}
		dur := time.Since(roundStart)
		if o.Metrics != nil {
			o.Metrics.Histogram("core_rowgen_round_seconds", telemetry.SecondsBuckets).Observe(dur.Seconds())
		}
		if fl == nil {
			return
		}
		fl.Record(telemetry.FlightEvent{
			Kind:      telemetry.FlightRound,
			Target:    target,
			Dir:       dir,
			Round:     rounds,
			Monitored: len(monitored),
			Violated:  violated,
			Pivots:    sp.solvedLPIters,
			DurUS:     dur.Microseconds(),
			Label:     label,
		})
	}
	if fl != nil {
		defer func() {
			fl.Record(telemetry.FlightEvent{
				Kind:      telemetry.FlightSubproblem,
				Target:    target,
				Dir:       dir,
				Round:     rounds,
				Monitored: len(monitored),
				Pivots:    totalIters,
				Bound:     finalGain,
				DurUS:     time.Since(start).Microseconds(),
				Label:     outcome,
			})
		}()
	}

	for round := 0; round < o.MaxRounds; round++ {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				return nil, mkStats(), fmt.Errorf("core: subproblem line %d dir %+d aborted: %w", target, dir, err)
			}
		}
		rounds = round + 1
		if roundTimed {
			roundStart = time.Now()
		}
		sp := newSubproblem(k, target, float64(dir), monitored, o, pre)
		sp.span = span
		sp.round = rounds
		if round == 0 && !o.noWarmStart {
			if o.Warm != nil {
				sp.warmSeed = o.Warm.lookup(target, dir, sp)
			}
			if sp.warmSeed == nil {
				// Round 1 monitors exactly pre.monitored, so the row layout
				// is the one the shared root basis was captured on.
				sp.warmSeed = pre.rootBasis
			}
		}
		var seed *float64
		if g, ok := inc.Best(); ok {
			v := pruneSeed(sp.masterObj(g), o.RelGap)
			seed = &v
			hadSeed = true
		}
		res, err := sp.solveOnce(o, seed, sb, prevRound)
		if round == 0 && o.Warm != nil && !o.noWarmStart {
			o.Warm.store(target, dir, sp)
		}
		totalNodes += sp.solvedNodes
		totalIters += sp.solvedLPIters
		totalWarm += sp.solvedWarmNodes
		totalFallbacks += sp.solvedWarmFwdFall
		if sp.solvedTruncated {
			totalTrunc++
		}
		prevRound = sp
		if err != nil {
			finishRound(sp, 0, "error")
			return nil, mkStats(), err
		}
		if res == nil {
			if sp.solvedTruncated {
				// The node budget ran out before the search found anything
				// or proved anything: not a pruning proof, so the caller's
				// result must not read as exact. The dive attack — when it
				// found one — is still a realized feasible gain, so return
				// it rather than nothing.
				refGain, haveRef := inc.Best()
				if haveDive && (!haveRef || diveGain > refGain) {
					refGain, haveRef = diveGain, true
				}
				noteBound(sp, refGain, haveRef)
				outcome = "truncated"
				if o.Metrics != nil {
					o.Metrics.Counter("core_subproblems_truncated_total").Inc()
				}
				finishRound(sp, 0, "truncated")
				if haveDive {
					if boundGain < diveGain {
						boundGain = diveGain
					}
					finalGain = diveGain
					att := mkAttack(diveDLR, diveGain, diveRes.P, diveRes.Flows, false)
					return att, att.Stats, nil
				}
				return nil, mkStats(), nil
			}
			noteBound(sp, 0, false)
			if hadSeed || sb.sawBound() {
				// Pruned: the reduced search proved nothing here beats the
				// shared bound. The dive attack is this subproblem's best
				// realized gain regardless — return it so the surrounding
				// merge can still pick it up (offers into the shared bound
				// carry gains, not attacks).
				outcome = "pruned"
				if o.Metrics != nil {
					o.Metrics.Counter("core_subproblems_pruned_total").Inc()
				}
				finishRound(sp, 0, "pruned")
				if haveDive {
					if boundGain < diveGain {
						boundGain = diveGain
					}
					finalGain = diveGain
					att := mkAttack(diveDLR, diveGain, diveRes.P, diveRes.Flows, true)
					att.Stats.Pruned = 1
					return att, att.Stats, nil
				}
				st := mkStats()
				st.Pruned = 1
				return nil, st, nil // pruned: nothing beats the shared bound here
			}
			if haveDive {
				// The reduced KKT problem is infeasible, but the dive still
				// realized a positive gain on the true ED.
				outcome = "optimal"
				finishRound(sp, 0, "dive")
				if boundGain < diveGain {
					boundGain = diveGain
				}
				finalGain = diveGain
				return mkAttack(diveDLR, diveGain, diveRes.P, diveRes.Flows, true), mkStats(), nil
			}
			outcome = "infeasible"
			finishRound(sp, 0, "infeasible")
			return nil, mkStats(), ErrNoFeasibleAttack
		}
		exact = exact && res.exact

		// Verify the predicted dispatch against every rated line the
		// reduced inner problem did not see; add violated rows and
		// repeat (the master's optimum is then exact for the full ED).
		flows, err := k.Model.FlowsFor(res.p)
		if err != nil {
			return nil, mkStats(), err
		}
		ratings := k.ratingsUnder(res.dlr)
		var violated []int
		for li := range net.Lines {
			if inSet[li] {
				continue
			}
			u := ratings[li]
			if u > 0 && math.Abs(flows[li]) > u+1e-6*(1+u) {
				violated = append(violated, li)
			}
		}
		if len(violated) == 0 {
			// Converged: polish the accepted attack with a deterministic
			// coordinate ascent on the true ED. The reduced problem only
			// models attacks whose binding lines are monitored; the polish
			// explores the quantized rating band directly and routinely
			// recovers gains the KKT encoding cannot certify.
			if !o.noDive {
				if pg, pdlr, pres, ok := sp.polish(res.dlr, false); ok && pg > res.gain+gainQuantum/2 {
					res.gain = pg
					res.dlr = pdlr
					res.p = pres.P
					flows = pres.Flows
				}
			}
			gain := quantize(res.gain, gainQuantum)
			if gain < 0 {
				gain = 0
			}
			// Prefer the dive on ties: its attack vector is a pure function
			// of the instance, while an alternate optimum surfaced by the
			// search can differ per trajectory at equal gain.
			if haveDive && diveGain >= gain {
				gain = diveGain
				res.dlr = diveDLR
				res.p = diveRes.P
				flows = diveRes.Flows
			}
			noteBound(sp, gain, true)
			if boundGain < gain {
				// A polished incumbent can exceed the reduced problem's
				// certified bound (its KKT certificate may need lines the
				// monitored set never grew to include); the attained gain
				// is itself a proof, so the reported bound rises with it.
				boundGain = gain
			}
			outcome = "optimal"
			if !exact {
				outcome = "truncated"
			}
			finalGain = gain
			finishRound(sp, 0, "converged")
			span.SetAttr("gain_pct", gain)
			span.SetAttr("nodes", totalNodes)
			span.SetAttr("rounds", rounds)
			if o.Metrics != nil {
				o.Metrics.Counter("core_rowgen_rounds_total").Add(int64(rounds))
			}
			att := mkAttack(res.dlr, gain, res.p, flows, exact)
			return att, att.Stats, nil
		}
		finishRound(sp, len(violated), "grow")
		for _, li := range violated {
			inSet[li] = true
			monitored = append(monitored, li)
		}
	}
	return nil, mkStats(), fmt.Errorf("core: row generation did not converge after %d rounds for line %d dir %+d",
		o.MaxRounds, target, dir)
}

// canonicalDLR reports an attack's manipulated ratings in choked-canonical
// form: each rating is lowered to the smallest band value consistent with
// the dispatch it induces, so it either rests on the band floor or sits
// exactly on the line's flow (the paper's Table I vectors have exactly this
// shape). Ratings the solver left slack are trajectory freedom — alternate
// optima and truncated searches place them differently per engine and
// schedule. The canonical flows come from a forward dispatch under the raw
// manipulated ratings (not from an incumbent's KKT-encoded p, whose slack
// coordinates carry the same trajectory freedom): the dispatch QP is
// strictly convex, so its flows are a unique function of the ratings and
// every engine and worker schedule reports the same vector for the same
// optimum.
func canonicalDLR(k *Knowledge, dlr map[int]float64, flows []float64) map[int]float64 {
	net := k.Model.Net
	canonFlows := flows
	if ev, err := k.EvaluateAttack(dlr); err == nil && ev.Feasible {
		canonFlows = ev.Dispatch.Flows
	}
	canon := make(map[int]float64, len(dlr))
	for li := range dlr {
		l := &net.Lines[li]
		canon[li] = clampToBand(l, math.Max(l.DLRMin, quantize(math.Abs(canonFlows[li]), ratingQuantum)))
	}
	return canon
}

// initialMonitoredSet seeds row generation: all DLR lines plus any line
// binding in the no-attack dispatch (or every rated line under monitorAll).
func initialMonitoredSet(k *Knowledge, o Options) []int {
	net := k.Model.Net
	if o.monitorAll {
		all := make([]int, 0, len(net.Lines))
		for li := range net.Lines {
			if net.Ratings(k.TrueDLR)[li] > 0 {
				all = append(all, li)
			}
		}
		return all
	}
	seen := make(map[int]bool)
	var out []int
	add := func(li int) {
		if !seen[li] {
			seen[li] = true
			out = append(out, li)
		}
	}
	for _, li := range net.DLRLines() {
		add(li)
	}
	if res, err := k.Model.Solve(k.trueRatings()); err == nil {
		for _, li := range res.Binding {
			add(li)
		}
	} else if !errors.Is(err, dispatch.ErrInfeasible) {
		// Solver trouble at seeding time is non-fatal: row generation
		// will discover any missing constraints.
		_ = err
	}
	return out
}
