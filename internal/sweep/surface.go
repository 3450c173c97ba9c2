package sweep

import (
	"fmt"
	"time"

	"github.com/edsec/edattack/internal/scada"
	"github.com/edsec/edattack/internal/telemetry"
)

// DispatchFn maps an operating point the operator believes in — a demand
// draw and the ratings the EMS displays — to a per-generator dispatch in
// MW. The surface runner calls it once per scenario, with the *seen*
// ratings, so a falsified DLR feed steers the dispatch exactly as it
// would steer the real economic-dispatch loop.
type DispatchFn func(demand, seenRatings []float64) ([]float64, error)

// SurfaceConfig parameterizes an attack-success-probability surface: a
// grid of (hour of day × attack magnitude) cells, each estimated from a
// seeded Monte-Carlo sample of operating points.
type SurfaceConfig struct {
	// Hours are the hour-of-day sample points (e.g. 0, 3, …, 21).
	Hours []float64
	// Magnitudes are the fractional rating inflations the attacker
	// applies to the seen feed of every DLR-instrumented line (0.2 =
	// report 120% of the true rating). Magnitude 0 is the no-attack
	// baseline column. Falsified values are clamped into each line's
	// plausibility band, exactly what a bound-checking EMS ingest would
	// admit.
	Magnitudes []float64
	// Draws is the Monte-Carlo sample size per cell (≤ 0 → 64).
	Draws int
	// Seed roots the per-cell draw streams. Each cell derives its own
	// deterministic sub-seed, so the surface is reproducible and
	// independent of cell evaluation order.
	Seed int64
	// DemandNoisePct and RatingNoisePct forward to
	// scada.MonteCarloConfig (0 → its defaults, negative disables).
	DemandNoisePct float64
	RatingNoisePct float64
	// Dispatch supplies the operator's dispatch for each scenario. Nil
	// falls back to scaling every generator proportionally to capacity,
	// which keeps the runner self-contained for tests; the CLI wires in
	// the real economic-dispatch model.
	Dispatch DispatchFn
	// BatchSize, Workers, Sequential, Metrics, and Flight forward to
	// Eval via Options.
	BatchSize  int
	Workers    int
	Sequential bool
	Metrics    *telemetry.Registry
	Flight     *telemetry.Flight
}

// SurfaceCell aggregates one (hour, magnitude) cell of the surface.
type SurfaceCell struct {
	Hour      float64 `json:"hour"`
	Magnitude float64 `json:"magnitude"`
	Draws     int     `json:"draws"`
	// Dangerous counts physically insecure draws, Detected counts draws
	// the operator's screens flag, Success counts dangerous-but-unseen
	// draws — the attacker's win condition.
	Dangerous int `json:"dangerous"`
	Detected  int `json:"detected"`
	Success   int `json:"success"`
	// SuccessRate is Success/Draws, the cell's estimated attack-success
	// probability.
	SuccessRate float64 `json:"success_rate"`
	// MeanCost is the average dispatch cost over the cell's draws.
	MeanCost float64 `json:"mean_cost"`
}

// Surface is a completed attack-success-probability surface.
type Surface struct {
	// Cells is hour-major: all magnitudes of Hours[0], then Hours[1], …
	Cells []SurfaceCell `json:"cells"`
	// Scenarios is the total number of evaluated draws.
	Scenarios int `json:"scenarios"`
	// EvalSeconds is the wall time spent in the batched evaluator, and
	// ScenariosPerSec the resulting throughput.
	EvalSeconds     float64 `json:"eval_seconds"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
}

// cellSeed derives a deterministic per-cell seed from the root seed via a
// splitmix64 step, so cells have independent streams regardless of how
// many hours or magnitudes surround them.
func cellSeed(root int64, hi, mi int) int64 {
	z := uint64(root) ^ (uint64(hi)+1)*0x9e3779b97f4a7c15 ^ (uint64(mi)+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// defaultDispatch scales every generator proportionally to its capacity
// to cover the total demand, clamped to unit limits.
func defaultDispatch(pc *Precomp) DispatchFn {
	var capacity float64
	for gi := range pc.Net.Gens {
		capacity += pc.Net.Gens[gi].Pmax
	}
	return func(demand, _ []float64) ([]float64, error) {
		var total float64
		for _, d := range demand {
			total += d
		}
		frac := 0.0
		if capacity > 0 {
			frac = total / capacity
		}
		out := make([]float64, len(pc.Net.Gens))
		for gi := range pc.Net.Gens {
			g := &pc.Net.Gens[gi]
			p := g.Pmax * frac
			if p < g.Pmin {
				p = g.Pmin
			}
			if p > g.Pmax {
				p = g.Pmax
			}
			out[gi] = p
		}
		return out, nil
	}
}

// GenScenarios materializes the surface's seeded scenario set without
// evaluating it. Generation is sequential and a pure function of (network,
// config) — the same scenarios regenerate exactly for any consumer. The
// returned cells carry the (hour, magnitude, draws) labels in generation
// order; scenarios are cell-major, Draws per cell. RunSurface is
// GenScenarios + one batched Eval; the serving layer makes the same two
// calls so it can reduce the outcomes to counts.
func GenScenarios(pc *Precomp, cfg SurfaceConfig) ([]Scenario, []SurfaceCell, error) {
	if len(cfg.Hours) == 0 || len(cfg.Magnitudes) == 0 {
		return nil, nil, fmt.Errorf("sweep: surface needs hours and magnitudes")
	}
	draws := cfg.Draws
	if draws <= 0 {
		draws = 64
	}
	attack := pc.Net.DLRLines()
	dispatch := cfg.Dispatch
	if dispatch == nil {
		dispatch = defaultDispatch(pc)
	}

	nCells := len(cfg.Hours) * len(cfg.Magnitudes)
	scenarios := make([]Scenario, 0, nCells*draws)
	cells := make([]SurfaceCell, 0, nCells)
	for hi, hour := range cfg.Hours {
		for mi, mag := range cfg.Magnitudes {
			mc, err := scada.NewMonteCarlo(pc.Net, scada.MonteCarloConfig{
				Seed:           cellSeed(cfg.Seed, hi, mi),
				DemandNoisePct: cfg.DemandNoisePct,
				RatingNoisePct: cfg.RatingNoisePct,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("sweep: %w", err)
			}
			for d := 0; d < draws; d++ {
				demand, trueR := mc.Draw(hour)
				seenR := make([]float64, len(trueR))
				copy(seenR, trueR)
				for _, li := range attack {
					l := &pc.Net.Lines[li]
					v := trueR[li] * (1 + mag)
					if v < l.DLRMin {
						v = l.DLRMin
					}
					if v > l.DLRMax {
						v = l.DLRMax
					}
					seenR[li] = v
				}
				disp, err := dispatch(demand, seenR)
				if err != nil {
					return nil, nil, fmt.Errorf("sweep: dispatch at hour %g mag %g: %w", hour, mag, err)
				}
				scenarios = append(scenarios, Scenario{
					Demand: demand, Dispatch: disp,
					TrueRatings: trueR, SeenRatings: seenR,
				})
			}
			cells = append(cells, SurfaceCell{Hour: hour, Magnitude: mag, Draws: draws})
		}
	}
	return scenarios, cells, nil
}

// RunSurface sweeps the (hour × magnitude) grid. Scenario generation is
// sequential and seeded — a pure function of (network, config) — then the
// whole surface's scenarios go through one batched Eval call, so results
// are independent of batch size and worker count.
func RunSurface(pc *Precomp, cfg SurfaceConfig) (*Surface, error) {
	scenarios, cells, err := GenScenarios(pc, cfg)
	if err != nil {
		return nil, err
	}
	draws := cfg.Draws
	if draws <= 0 {
		draws = 64
	}

	start := time.Now()
	outcomes, err := Eval(pc, scenarios, Options{
		BatchSize: cfg.BatchSize, Workers: cfg.Workers,
		Sequential: cfg.Sequential, Metrics: cfg.Metrics, Flight: cfg.Flight,
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()

	for ci := range cells {
		c := &cells[ci]
		var cost float64
		for d := 0; d < draws; d++ {
			out := &outcomes[ci*draws+d]
			if out.Dangerous {
				c.Dangerous++
			}
			if out.Detected {
				c.Detected++
			}
			if out.Success {
				c.Success++
			}
			cost += out.Cost
		}
		c.SuccessRate = float64(c.Success) / float64(draws)
		c.MeanCost = cost / float64(draws)
	}
	s := &Surface{Cells: cells, Scenarios: len(scenarios), EvalSeconds: elapsed}
	if elapsed > 0 {
		s.ScenariosPerSec = float64(len(scenarios)) / elapsed
	}
	return s, nil
}
