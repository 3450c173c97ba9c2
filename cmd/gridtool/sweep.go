// gridtool's scenario-sweep subcommand: Monte-Carlo attack-success
// surfaces over (hour of day × attack magnitude) grids, evaluated through
// the batched sweep engine.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	edattack "github.com/edsec/edattack"
)

// parseFloats splits a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

// proportionalDispatch scales every generator to its capacity share of the
// total demand — the shed-and-carry-on fallback when the economic dispatch
// is infeasible under the (possibly falsified) seen ratings.
func proportionalDispatch(net *edattack.Network, demand []float64) []float64 {
	var capacity, total float64
	for gi := range net.Gens {
		capacity += net.Gens[gi].Pmax
	}
	for _, d := range demand {
		total += d
	}
	frac := 0.0
	if capacity > 0 {
		frac = total / capacity
	}
	out := make([]float64, len(net.Gens))
	for gi := range net.Gens {
		g := &net.Gens[gi]
		p := g.Pmax * frac
		if p < g.Pmin {
			p = g.Pmin
		}
		if p > g.Pmax {
			p = g.Pmax
		}
		out[gi] = p
	}
	return out
}

// sweepDoc is the JSON envelope `gridtool sweep` emits.
type sweepDoc struct {
	Case       string                 `json:"case"`
	Seed       int64                  `json:"seed"`
	Draws      int                    `json:"draws"`
	Hours      []float64              `json:"hours"`
	Magnitudes []float64              `json:"magnitudes"`
	Infeasible int                    `json:"ed_infeasible_draws"`
	Surface    *edattack.SweepSurface `json:"surface"`
}

// sweepCmd implements `gridtool sweep`: draw seeded Monte-Carlo operating
// points per (hour, magnitude) cell, dispatch each under the ratings the
// operator sees (falsified on the attack lines), evaluate everything
// through the batched engine, and emit the attack-success surface.
func sweepCmd(args []string) error {
	fs := flag.NewFlagSet("gridtool sweep", flag.ContinueOnError)
	caseName := fs.String("case", "case118", "benchmark case")
	draws := fs.Int("draws", 64, "Monte-Carlo draws per surface cell")
	hoursStr := fs.String("hours", "0,3,6,9,12,15,18,21", "comma-separated hours of day")
	magMax := fs.Float64("mag-max", 0.4, "largest fractional DLR inflation the attacker applies")
	magSteps := fs.Int("mag-steps", 4, "magnitude steps between 0 and -mag-max (inclusive grid)")
	seed := fs.Int64("seed", 1, "root seed for the per-cell draw streams")
	batch := fs.Int("batch", 0, "scenarios per packed batch (0 = engine default)")
	workers := fs.Int("workers", 0, "batch evaluation workers (0 = one per CPU)")
	demandNoise := fs.Float64("demand-noise", 0, "1-sigma per-bus demand noise fraction (0 = default, negative disables)")
	ratingNoise := fs.Float64("rating-noise", 0, "1-sigma DLR rating noise fraction (0 = default, negative disables)")
	noED := fs.Bool("no-ed", false, "skip the per-draw economic dispatch and scale generation proportionally")
	oracle := fs.Bool("oracle", false, "evaluate through the sequential per-scenario oracle instead of the batched engine")
	format := fs.String("format", "json", "output format: json or csv")
	outPath := fs.String("o", "", "write the surface here instead of stdout")
	metricsPath := fs.String("metrics", "", "dump the sweep metrics snapshot to this JSON file")
	flightPath := fs.String("flight", "", "dump the flight events to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	hours, err := parseFloats(*hoursStr)
	if err != nil {
		return fmt.Errorf("-hours: %w", err)
	}
	if *magSteps < 1 {
		return fmt.Errorf("-mag-steps must be at least 1")
	}
	mags := make([]float64, *magSteps+1)
	for i := range mags {
		mags[i] = *magMax * float64(i) / float64(*magSteps)
	}

	net, err := edattack.LoadCase(*caseName)
	if err != nil {
		return err
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		return err
	}
	// The dispatch model already holds the PTDF — share it with the sweep
	// precomputation instead of factoring the network again.
	pc, err := edattack.SweepPrecomputeFromPTDF(net, model.PTDF())
	if err != nil {
		return err
	}

	infeasible := 0
	var dispatchFn func(demand, seen []float64) ([]float64, error)
	if !*noED {
		dispatchFn = func(demand, seen []float64) ([]float64, error) {
			if err := model.SetDemands(demand); err != nil {
				return nil, err
			}
			res, err := model.Solve(seen)
			if errors.Is(err, edattack.ErrInfeasible) {
				infeasible++
				return proportionalDispatch(net, demand), nil
			}
			if err != nil {
				return nil, err
			}
			return res.P, nil
		}
	}

	reg := edattack.NewMetricsRegistry()
	fl := edattack.NewFlightRecorder(0)
	surface, err := edattack.RunSweepSurface(pc, edattack.SweepSurfaceConfig{
		Hours:          hours,
		Magnitudes:     mags,
		Draws:          *draws,
		Seed:           *seed,
		DemandNoisePct: *demandNoise,
		RatingNoisePct: *ratingNoise,
		Dispatch:       dispatchFn,
		Eval: edattack.SweepOptions{
			BatchSize:  *batch,
			Workers:    *workers,
			Sequential: *oracle,
			Metrics:    reg,
			Flight:     fl,
		},
	})
	if err != nil {
		return err
	}

	if *metricsPath != "" {
		if err := writeFileWith(*metricsPath, reg.WriteJSON); err != nil {
			return err
		}
	}
	if *flightPath != "" {
		if err := writeFileWith(*flightPath, fl.WriteJSON); err != nil {
			return err
		}
	}

	out, closeOut, err := openOutput(*outPath)
	if err != nil {
		return err
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		err = enc.Encode(&sweepDoc{
			Case: net.Name, Seed: *seed, Draws: *draws,
			Hours: hours, Magnitudes: mags, Infeasible: infeasible,
			Surface: surface,
		})
	case "csv":
		_, err = fmt.Fprintln(out, "hour,magnitude,draws,dangerous,detected,success,success_rate,mean_cost")
		for _, c := range surface.Cells {
			if err != nil {
				break
			}
			_, err = fmt.Fprintf(out, "%g,%g,%d,%d,%d,%d,%.6f,%.4f\n",
				c.Hour, c.Magnitude, c.Draws, c.Dangerous, c.Detected, c.Success, c.SuccessRate, c.MeanCost)
		}
	default:
		err = fmt.Errorf("unknown format %q (want json or csv)", *format)
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: %d scenarios in %.2fs (%.0f scenarios/s, %d ED-infeasible draws)\n",
		surface.Scenarios, surface.EvalSeconds, surface.ScenariosPerSec, infeasible)
	return nil
}

// writeFileWith streams a telemetry dump into path.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
