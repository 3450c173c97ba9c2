// Package edattack reproduces "Compromising Security of Economic Dispatch
// in Power System Operations" (DSN 2017): optimal generation of dynamic
// line rating (DLR) manipulations against DC economic dispatch, and their
// implementation as semantic memory-corruption attacks on (simulated) EMS
// software.
//
// The package is a facade over the internal substrates:
//
//   - grid, grid/cases — network models and benchmark systems
//   - dcflow, acflow   — DC and Newton–Raphson AC power flow
//   - dispatch         — the operator's economic dispatch (LP/QP) and the
//     nonlinear evaluation of a dispatch
//   - lp, qp, milp     — the pure-Go optimization stack
//   - core             — the paper's bilevel attack generation
//   - dlr, scada       — rating/demand processes and operator defenses
//   - ems              — the EMS process substrate and memory exploit
//
// Quickstart:
//
//	net, _ := edattack.LoadCase("case3")
//	model, _ := edattack.NewDispatchModel(net)
//	k, _ := edattack.NewKnowledge(model, map[int]float64{1: 130, 2: 120})
//	attack, _ := edattack.FindOptimalAttack(k, edattack.AttackOptions{})
//	fmt.Printf("U_cap = %.1f%% via line %d\n", attack.GainPct, attack.TargetLine)
package edattack

import (
	"fmt"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
)

// Re-exported model types. These are aliases, not wrappers: values flow
// freely between the facade and the underlying packages.
type (
	// Network is a transmission system model.
	Network = grid.Network
	// Bus, Line, and Generator are the network components.
	Bus = grid.Bus
	// Line is one transmission branch.
	Line = grid.Line
	// Generator is one dispatchable unit.
	Generator = grid.Generator

	// DispatchModel is the operator's DC economic dispatch.
	DispatchModel = dispatch.Model
	// DispatchResult is one solved dispatch.
	DispatchResult = dispatch.Result
	// ACEvaluation is the nonlinear ground truth for a dispatch.
	ACEvaluation = dispatch.ACEvaluation

	// Knowledge is the attacker's system knowledge (Section II-A).
	Knowledge = core.Knowledge
	// Attack is a manipulated-rating vector with predicted consequences.
	Attack = core.Attack
	// AttackOptions tunes the bilevel attack generation.
	AttackOptions = core.Options
	// AttackEvaluation is a replay of a manipulation through the
	// operator's ED.
	AttackEvaluation = core.Evaluation
	// CoordinateOptions tunes the coordinate-ascent attacker.
	CoordinateOptions = core.CoordinateOptions
)

// Reformulation methods for the bilevel program (see core.Method).
const (
	MethodComplementarity = core.MethodComplementarity
	MethodBigM            = core.MethodBigM
)

// Re-exported sentinel errors.
var (
	// ErrInfeasible reports an infeasible economic dispatch.
	ErrInfeasible = dispatch.ErrInfeasible
	// ErrNoFeasibleAttack reports that no stealthy manipulation works.
	ErrNoFeasibleAttack = core.ErrNoFeasibleAttack
)

// LoadCase builds a benchmark network by name: "case3" (the paper's Fig. 3
// example), "case9" (WSCC), the synthetic "case30", "case57", "case118"
// systems, or the tiled "grow300"/"grow1000" interconnections used by the
// MILP scaling benchmarks (see internal/grid/cases for provenance). Names
// are case-insensitive and surrounding whitespace is ignored.
func LoadCase(name string) (*Network, error) {
	net, err := cases.Load(name)
	if err != nil {
		return nil, fmt.Errorf("edattack: %w", err)
	}
	return net, nil
}

// CaseNames lists the loadable benchmark cases.
func CaseNames() []string {
	return cases.Names()
}

// GrowGrid builds a deterministic tiled synthetic interconnection of the
// requested size (see cases.Grow). It backs the gridtool growgrid command.
func GrowGrid(o GrowOptions) (*Network, error) {
	return cases.Grow(o)
}

// GrowOptions parameterize GrowGrid.
type GrowOptions = cases.GrowOptions

// NewDispatchModel builds the operator's DC-ED model for a validated
// network.
func NewDispatchModel(net *Network) (*DispatchModel, error) {
	return dispatch.BuildModel(net)
}

// EvaluateDispatchAC runs the nonlinear (AC) evaluation of a dispatch
// against the given true ratings — the paper's measurement of what an
// attacked dispatch actually does.
func EvaluateDispatchAC(net *Network, setpoints, trueRatings []float64) (*ACEvaluation, error) {
	return dispatch.EvaluateAC(net, setpoints, trueRatings)
}

// NewKnowledge bundles attacker knowledge: the dispatch model plus the true
// dynamic ratings u^d of every DLR line.
func NewKnowledge(model *DispatchModel, trueDLR map[int]float64) (*Knowledge, error) {
	return core.NewKnowledge(model, trueDLR)
}

// FindOptimalAttack runs the paper's Algorithm 1: solve the 2·|E_D| bilevel
// subproblems and return the manipulation maximizing the percentage
// violation of true ratings.
func FindOptimalAttack(k *Knowledge, o AttackOptions) (*Attack, error) {
	return core.FindOptimalAttack(k, o)
}

// GreedyAttack is the vertex-heuristic baseline attacker.
func GreedyAttack(k *Knowledge) (*Attack, error) {
	return core.GreedyVertexAttack(k)
}

// RandomAttack is the sampling baseline attacker.
func RandomAttack(k *Knowledge, samples int, seed int64) (*Attack, error) {
	return core.RandomAttack(k, samples, seed)
}

// CoordinateAscentAttack is the scalable approximate attacker used for long
// time sweeps.
func CoordinateAscentAttack(k *Knowledge, o core.CoordinateOptions) (*Attack, error) {
	return core.CoordinateAscentAttack(k, o)
}

// EvaluateAttack replays a manipulation through the operator's dispatch and
// scores the realized violation.
func EvaluateAttack(k *Knowledge, dlrValues map[int]float64) (*AttackEvaluation, error) {
	return k.EvaluateAttack(dlrValues)
}
