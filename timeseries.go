package edattack

import (
	"errors"
	"fmt"
	"math"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/dlr"
	"github.com/edsec/edattack/internal/par"
)

// Pattern re-exports the dlr daily pattern type.
type Pattern = dlr.Pattern

// AttackerKind selects the attacker model for a time-series study.
type AttackerKind int

// Attacker kinds.
const (
	// AttackerNone runs the operator only (baseline curves).
	AttackerNone AttackerKind = iota + 1
	// AttackerOptimal runs the paper's Algorithm 1 at every step.
	AttackerOptimal
	// AttackerGreedy runs the vertex heuristic at every step.
	AttackerGreedy
	// AttackerCoordinate runs coordinate ascent at every step (the
	// scalable choice for large cases).
	AttackerCoordinate
)

func (k AttackerKind) String() string {
	switch k {
	case AttackerNone:
		return "none"
	case AttackerOptimal:
		return "optimal"
	case AttackerGreedy:
		return "greedy"
	case AttackerCoordinate:
		return "coordinate"
	default:
		return fmt.Sprintf("AttackerKind(%d)", int(k))
	}
}

// TimeSeriesConfig drives the 24-hour studies behind Figs. 4 and 5.
type TimeSeriesConfig struct {
	// Net is the system under study (not mutated; an internal clone is).
	Net *Network
	// DemandScale multiplies every bus's nominal demand over the day
	// (nil = constant 1).
	DemandScale Pattern
	// RatingPatterns gives the true dynamic rating process u^d(t) per DLR
	// line index. Values are clamped into each line's plausibility band.
	RatingPatterns map[int]Pattern
	// StepMinutes is the sampling interval (default 15, as in the paper).
	StepMinutes float64
	// Attacker selects the attacker model (default AttackerOptimal).
	Attacker AttackerKind
	// AttackOptions tunes AttackerOptimal. AttackerCoordinate runs with
	// the default CoordinateOptions.
	AttackOptions AttackOptions
	// ACEvaluate additionally measures each attacked dispatch under the
	// nonlinear model (Figs. 4b/4c and 5 "MATPOWER" curves).
	ACEvaluate bool
	// RobustMarginPct, when positive, runs the operator *baseline* with
	// the Section VII attack-aware dispatch (DLR lines derated by this
	// margin), so the series records the mitigation's cost premium over
	// the day (NoAttackCost column). The attacker columns still model an
	// unhardened operator; combine with AttackerNone for a pure
	// mitigation-cost study.
	RobustMarginPct float64
	// Workers > 1 spreads the day's steps over that many goroutines, each
	// step solving against its own network and model clone; 0 or 1 keeps
	// the sequential sweep. Steps are independent (each re-derives demand
	// and ratings from its hour), and results assemble in hour order.
	Workers int
}

// TimeStep is one row of a time-series study.
type TimeStep struct {
	// Hour is the time of day.
	Hour float64
	// DemandMW is the aggregate demand at this step.
	DemandMW float64
	// TrueDLR is u^d per DLR line.
	TrueDLR map[int]float64
	// Feasible reports whether the no-attack ED was feasible (when it is
	// not, the operator alarms regardless of any attack).
	Feasible bool
	// NoAttackCost is the operator's cost without manipulation.
	NoAttackCost float64
	// Attack is the attacker's chosen manipulation (nil when none found
	// or Attacker is AttackerNone).
	Attack *Attack
	// GainDCPct and CostDC are the bilevel-model (DC) predictions.
	GainDCPct, CostDC float64
	// GainACPct and CostAC are the realized nonlinear values (when
	// ACEvaluate is set).
	GainACPct, CostAC float64
	// FlowDCDLR and LoadingACDLR record per-DLR-line DC flow and AC MVA
	// loading under attack (Fig. 4b's curves).
	FlowDCDLR, LoadingACDLR map[int]float64
}

// RunTimeSeries sweeps a day, re-solving the operator's dispatch and the
// attacker's problem at every step.
func RunTimeSeries(cfg TimeSeriesConfig) ([]TimeStep, error) {
	if cfg.Net == nil {
		return nil, errors.New("edattack: TimeSeriesConfig.Net is nil")
	}
	if cfg.StepMinutes == 0 {
		cfg.StepMinutes = 15
	}
	if cfg.Attacker == 0 {
		cfg.Attacker = AttackerOptimal
	}
	net := cfg.Net.Clone()
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("edattack: %w", err)
	}
	dlrLines := net.DLRLines()
	if len(dlrLines) == 0 {
		return nil, core.ErrNoDLRLines
	}
	for _, li := range dlrLines {
		if cfg.RatingPatterns[li] == nil {
			return nil, fmt.Errorf("edattack: missing rating pattern for DLR line %d", li)
		}
	}
	model, err := dispatch.BuildModel(net)
	if err != nil {
		return nil, err
	}
	// The operator-side solves share whatever registry the attacker options
	// carry, so one -metrics flag observes the whole pipeline.
	model.Metrics = cfg.AttackOptions.Metrics
	nominalPd := make([]float64, len(net.Buses))
	nominalQd := make([]float64, len(net.Buses))
	for i := range net.Buses {
		nominalPd[i] = net.Buses[i].Pd
		nominalQd[i] = net.Buses[i].Qd
	}

	hours, _, err := dlr.Constant(0).Sample(cfg.StepMinutes)
	if err != nil {
		return nil, fmt.Errorf("edattack: %w", err)
	}

	// runStep computes one row against a network and model whose demands
	// are already set for hour h. Both sweeps below funnel through it.
	runStep := func(h float64, stepNet *Network, stepModel *dispatch.Model) (TimeStep, error) {
		ud := make(map[int]float64, len(dlrLines))
		for _, li := range dlrLines {
			l := &stepNet.Lines[li]
			v := cfg.RatingPatterns[li](h)
			ud[li] = math.Max(l.DLRMin, math.Min(l.DLRMax, v))
		}
		step := TimeStep{
			Hour:     h,
			DemandMW: stepModel.Demand,
			TrueDLR:  ud,
		}
		k, err := core.NewKnowledge(stepModel, ud)
		if err != nil {
			return step, err
		}
		// Operator baseline under true ratings.
		baseRatings := stepNet.Ratings(ud)
		if cfg.RobustMarginPct > 0 {
			for _, li := range dlrLines {
				baseRatings[li] *= 1 - cfg.RobustMarginPct
			}
		}
		base, err := stepModel.Solve(baseRatings)
		switch {
		case errors.Is(err, dispatch.ErrInfeasible):
			step.Feasible = false
			return step, nil
		case err != nil:
			return step, err
		}
		step.Feasible = true
		step.NoAttackCost = base.Cost

		var att *Attack
		switch cfg.Attacker {
		case AttackerNone:
		case AttackerOptimal:
			att, err = core.FindOptimalAttack(k, cfg.AttackOptions)
		case AttackerGreedy:
			att, err = core.GreedyVertexAttack(k)
		case AttackerCoordinate:
			att, err = core.CoordinateAscentAttack(k, core.CoordinateOptions{})
		default:
			return step, fmt.Errorf("edattack: unknown attacker kind %v", cfg.Attacker)
		}
		if err != nil && !errors.Is(err, core.ErrNoFeasibleAttack) {
			return step, fmt.Errorf("edattack: attacker at hour %.2f: %w", h, err)
		}
		if att == nil {
			return step, nil
		}
		step.Attack = att
		step.GainDCPct = att.GainPct
		step.CostDC = att.PredictedCost
		step.FlowDCDLR = make(map[int]float64, len(dlrLines))
		for _, li := range dlrLines {
			step.FlowDCDLR[li] = att.PredictedFlows[li]
		}
		if cfg.ACEvaluate {
			// True ratings vector restricted to DLR lines: the
			// attacker's utility is scored against u^d there.
			ratings := make([]float64, len(stepNet.Lines))
			for _, li := range dlrLines {
				ratings[li] = ud[li]
			}
			ev, err := dispatch.EvaluateACWith(stepNet, att.PredictedP, ratings, cfg.AttackOptions.Metrics)
			if err == nil {
				step.GainACPct = ev.WorstPct
				step.CostAC = ev.Cost
				step.LoadingACDLR = make(map[int]float64, len(dlrLines))
				for _, li := range dlrLines {
					step.LoadingACDLR[li] = ev.Flow.LineLoadingMVA[li]
				}
			}
			// AC divergence is reported as zeroed fields rather than
			// aborting the sweep: a non-converging corner case is a
			// data point, not a harness failure.
		}
		return step, nil
	}

	stepDemands := func(h float64) ([]float64, []float64) {
		scale := 1.0
		if cfg.DemandScale != nil {
			scale = cfg.DemandScale(h)
		}
		pd := make([]float64, len(net.Buses))
		qd := make([]float64, len(net.Buses))
		for i := range net.Buses {
			pd[i] = nominalPd[i] * scale
			qd[i] = nominalQd[i] * scale
		}
		return pd, qd
	}

	if cfg.Workers > 1 {
		// Parallel sweep: each step solves against its own network clone
		// and shallow model clone, so no step observes another's demand
		// mutations or warm-start state. Rows assemble in hour order and
		// the first error (by hour) wins, matching the sequential sweep.
		steps := make([]TimeStep, len(hours))
		errs := make([]error, len(hours))
		par.Each(cfg.Workers, len(hours), func(i int) {
			h := hours[i]
			pd, qd := stepDemands(h)
			stepNet := net.Clone()
			for bi := range stepNet.Buses {
				stepNet.Buses[bi].Pd = pd[bi]
				stepNet.Buses[bi].Qd = qd[bi]
			}
			stepModel, err := model.ForDemands(pd, stepNet)
			if err != nil {
				errs[i] = err
				return
			}
			steps[i], errs[i] = runStep(h, stepNet, stepModel)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return steps, nil
	}

	steps := make([]TimeStep, 0, len(hours))
	for _, h := range hours {
		pd, qd := stepDemands(h)
		for i := range net.Buses {
			net.Buses[i].Pd = pd[i]
			net.Buses[i].Qd = qd[i]
		}
		if err := model.SetDemands(pd); err != nil {
			return nil, err
		}
		step, err := runStep(h, net, model)
		if err != nil {
			return nil, err
		}
		steps = append(steps, step)
	}
	// Restore the clone's nominal demands (callers may reuse cfg.Net).
	for i := range net.Buses {
		net.Buses[i].Pd = nominalPd[i]
		net.Buses[i].Qd = nominalQd[i]
	}
	return steps, nil
}
