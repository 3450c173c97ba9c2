package core

import (
	"fmt"
	"math"

	"github.com/edsec/edattack/internal/dispatch"
)

// CoordinateOptions tune the guided-search attacker.
type CoordinateOptions struct {
	// GridPoints is the number of trial values per DLR line per sweep
	// (default 7).
	GridPoints int
	// MaxSweeps caps full coordinate sweeps per start point (default 6).
	MaxSweeps int
	// checkSkip is Options.checkSkip for this attacker; set only by tests.
	checkSkip skipHook
}

// slackMargin is the relative margin by which a line's incumbent |flow|
// must clear a rating for lineScan to call the line slack: far above the
// dispatch QP's absolute 1e-8 violation test, far below the rating quantum.
const slackMargin = 1e-6

// skipKind says why a coordinate scan may drop a candidate unsolved.
type skipKind int

const (
	noSkip skipKind = iota
	// skipSlack: the candidate's ED optimum is one the scan has seen.
	skipSlack
	// skipInfeasible: the candidate's ED is infeasible.
	skipInfeasible
)

// skipHook receives a skipped candidate that a test has solved anyway: why
// it was skipped, the slack ED a skipSlack proof used, and the solve's
// outcome.
type skipHook func(kind skipKind, slack, res *dispatch.Result, err error)

// check solves the candidate dlr anyway and reports it to h.
func (h skipHook) check(k *Knowledge, kind skipKind, slack *dispatch.Result, dlr map[int]float64) {
	res, err := k.Model.Solve(k.ratingsUnder(dlr))
	h(kind, slack, res, err)
}

// lineScan proves, for one coordinate of a coordinate ascent, which
// candidate ratings cannot change the scan. The scan moves line li's
// rating while every other rating stays put; a candidate is dropped
// without a dispatch solve when either proof holds:
//
//   - skipSlack: some ED this scan has seen, the incumbent or a solved
//     candidate, left li's |flow| below its own li rating by slackMargin.
//     Line li's row is inactive in that ED's KKT conditions, so it is also
//     the optimum of the ED without li's row, and of the ED at every li
//     rating v above that |flow|: when the QP's Hessian is positive
//     definite (every cost strictly convex) the optimum is unique. Such a
//     candidate scores exactly a gain the scan has already scored and not
//     strictly improved on, so the scan's strict improvement test would
//     reject it.
//   - skipInfeasible: a rating at least v on li already made the ED
//     infeasible. Lowering a positive rating only shrinks the feasible set.
//
// Neither proof changes what the scan picks. A scan without a feasible
// incumbent (a choked start) skips nothing as slack until it solves one.
type lineScan struct {
	convex     bool             // the dispatch QP's Hessian is positive definite
	li         int              // the line being scanned
	slack      *dispatch.Result // an ED of this scan with li slack; nil when none
	infeasible float64          // largest rating on li found infeasible; 0 when none
}

// start begins the scan of line li from incumbent inc (nil when none),
// solved with li at rating at.
func (s *lineScan) start(li int, inc *dispatch.Result, at float64) {
	s.li, s.slack, s.infeasible = li, nil, 0
	if inc != nil {
		s.solved(inc, at)
	}
}

// solved records a feasible ED of this scan, solved with li at rating at.
func (s *lineScan) solved(res *dispatch.Result, at float64) {
	if s.slack == nil && isSlack(res.Flows[s.li], at) {
		s.slack = res
	}
}

// failed records that li at rating v made the ED infeasible.
func (s *lineScan) failed(v float64) {
	s.infeasible = math.Max(s.infeasible, v)
}

// isSlack reports whether flow f clears rating u by slackMargin; a rating
// u ≤ 0 leaves a line unrated and is never slack.
func isSlack(f, u float64) bool {
	return math.Abs(f) < u-slackMargin*(1+u)
}

// skip reports whether candidate rating v can be dropped unsolved, and why.
func (s *lineScan) skip(v float64) skipKind {
	if s.convex && s.slack != nil && isSlack(s.slack.Flows[s.li], v) {
		return skipSlack
	}
	if v > 0 && v <= s.infeasible {
		return skipInfeasible
	}
	return noSkip
}

func (o CoordinateOptions) withDefaults() CoordinateOptions {
	if o.GridPoints < 2 {
		o.GridPoints = 7
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 6
	}
	return o
}

// CoordinateAscentAttack is the scalable approximate attacker used for long
// parameter sweeps (e.g. the 24-hour studies of Figs. 4–5): it evaluates the
// operator's actual dispatch — the exact realized U_cap — under candidate
// manipulations and performs coordinate ascent over the |E_D|-dimensional
// plausibility box, starting from the greedy vertices and the identity.
//
// Every reported gain is realized (achievable by construction); the method
// trades the branch-and-bound optimality certificate for speed. On the
// paper's 3-bus example it recovers the exact optimum; see the ablation
// benchmarks for the gap on larger cases.
func CoordinateAscentAttack(k *Knowledge, o CoordinateOptions) (*Attack, error) {
	o = o.withDefaults()
	net := k.Model.Net
	dlrLines := net.DLRLines()
	if len(dlrLines) == 0 {
		return nil, ErrNoDLRLines
	}

	// Candidate starts: true ratings (identity) and each greedy vertex.
	starts := make([]map[int]float64, 0, len(dlrLines)+1)
	identity := make(map[int]float64, len(dlrLines))
	for _, li := range dlrLines {
		identity[li] = clampToBand(&net.Lines[li], k.TrueDLR[li])
	}
	starts = append(starts, identity)
	for _, target := range dlrLines {
		v := make(map[int]float64, len(dlrLines))
		for _, li := range dlrLines {
			if li == target {
				v[li] = net.Lines[li].DLRMax
			} else {
				v[li] = net.Lines[li].DLRMin
			}
		}
		starts = append(starts, v)
	}

	type scored struct {
		dlr  map[int]float64
		ev   *Evaluation
		gain float64
	}
	evaluate := func(dlr map[int]float64) (*scored, error) {
		ev, err := k.EvaluateAttack(dlr)
		if err != nil {
			return nil, err
		}
		if !ev.Feasible {
			return nil, nil
		}
		return &scored{dlr: dlr, ev: ev, gain: ev.GainPct}, nil
	}

	var best *scored
	scan := lineScan{convex: k.Model.StrictlyConvex()}
	for si, start := range starts {
		cur, err := evaluate(start)
		if err != nil {
			return nil, fmt.Errorf("core: coordinate start %d: %w", si, err)
		}
		if cur == nil {
			continue
		}
		for sweep := 0; sweep < o.MaxSweeps; sweep++ {
			improved := false
			for _, li := range dlrLines {
				l := &net.Lines[li]
				bestVal := cur.dlr[li]
				scan.start(li, cur.ev.Dispatch, bestVal)
				for g := 0; g < o.GridPoints; g++ {
					v := l.DLRMin + (l.DLRMax-l.DLRMin)*float64(g)/float64(o.GridPoints-1)
					if math.Abs(v-bestVal) < 1e-9 {
						continue
					}
					if kind := scan.skip(v); kind != noSkip {
						if o.checkSkip != nil {
							trial := cloneDLR(cur.dlr)
							trial[li] = v
							o.checkSkip.check(k, kind, scan.slack, trial)
						}
						continue
					}
					trial := cloneDLR(cur.dlr)
					trial[li] = v
					cand, err := evaluate(trial)
					if err != nil {
						return nil, fmt.Errorf("core: coordinate trial: %w", err)
					}
					if cand == nil {
						scan.failed(v)
						continue
					}
					scan.solved(cand.ev.Dispatch, v)
					if cand.gain > cur.gain+1e-9 {
						cur = cand
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
		if best == nil || cur.gain > best.gain {
			best = cur
		}
	}
	if best == nil {
		return nil, ErrNoFeasibleAttack
	}
	return &Attack{
		DLR:            best.dlr,
		TargetLine:     best.ev.WorstLine,
		Direction:      best.ev.Direction,
		GainPct:        best.gain,
		PredictedP:     best.ev.Dispatch.P,
		PredictedFlows: best.ev.Dispatch.Flows,
		PredictedCost:  best.ev.Dispatch.Cost,
		Exact:          false,
	}, nil
}

func cloneDLR(in map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
