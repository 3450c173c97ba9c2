package edattack

import (
	"github.com/edsec/edattack/internal/scada"
	"github.com/edsec/edattack/internal/sweep"
)

// Re-exported scenario-sweep types: the batched evaluation engine behind
// Monte-Carlo attack-success studies (see internal/sweep).
type (
	// SweepPrecomp is the per-topology PTDF/LODF bundle scenario
	// evaluation runs on.
	SweepPrecomp = sweep.Precomp
	// SweepScenario is one (demand, dispatch, true ratings, seen ratings)
	// operating point.
	SweepScenario = sweep.Scenario
	// SweepOutcome is one evaluated scenario.
	SweepOutcome = sweep.Outcome
	// SweepOptions tunes batch size, workers, and telemetry sinks.
	SweepOptions = sweep.Options
	// SweepSurfaceConfig parameterizes an attack-success-probability
	// surface; SweepSurface is the result.
	SweepSurfaceConfig = sweep.SurfaceConfig
	// SweepSurface is a completed (hour × magnitude) surface.
	SweepSurface = sweep.Surface
	// MonteCarloConfig seeds the scada operating-point draw stream that
	// feeds sweeps.
	MonteCarloConfig = scada.MonteCarloConfig
	// MonteCarlo is the seeded draw stream itself.
	MonteCarlo = scada.MonteCarlo
)

// SweepPrecompute builds the shift-factor bundle (PTDF, LODF, generator
// map) the batched evaluator needs, factoring the network exactly once.
func SweepPrecompute(net *Network) (*SweepPrecomp, error) {
	return sweep.Precompute(net)
}

// SweepPrecomputeFromPTDF is SweepPrecompute for callers that already hold
// the network's PTDF (for example from a DispatchModel).
func SweepPrecomputeFromPTDF(net *Network, ptdf *Matrix) (*SweepPrecomp, error) {
	return sweep.PrecomputeFromPTDF(net, ptdf)
}

// SweepEval evaluates scenarios through the batched engine (or the
// sequential oracle when o.Sequential is set). Outcomes are bit-identical
// for any batch size and worker count.
func SweepEval(pc *SweepPrecomp, scs []SweepScenario, o SweepOptions) ([]SweepOutcome, error) {
	return sweep.Eval(pc, scs, o)
}

// RunSweepSurface sweeps an (hour × attack magnitude) grid of seeded
// Monte-Carlo cells and returns the attack-success-probability surface.
func RunSweepSurface(pc *SweepPrecomp, cfg SweepSurfaceConfig) (*SweepSurface, error) {
	return sweep.RunSurface(pc, cfg)
}

// NewMonteCarlo builds the seeded (demand, rating) draw stream used by
// sweeps and scenario studies.
func NewMonteCarlo(net *Network, cfg MonteCarloConfig) (*MonteCarlo, error) {
	return scada.NewMonteCarlo(net, cfg)
}
