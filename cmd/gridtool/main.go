// Command gridtool inspects benchmark cases and runs power-flow and
// economic-dispatch studies on them — the operator's-eye view of the
// systems the attack targets.
//
// Usage:
//
//	gridtool -case case9 [-exp info|dcpf|acpf|ed|robust] [-margin 0.05]
//	gridtool report [-case case118] [-nodes 40] [-flight flight.json] [-html] [-o report.md]
//	gridtool tree [-case case118] [-target L -dir ±1] [-json] [-o tree.dot]
//	gridtool benchdiff [-tol 10] [-bench solver|sweep|milp|serve] old.json new.json
//	gridtool sweep [-case case118] [-draws 64] [-mag-max 0.4] [-seed 1] [-format json|csv] [-o surface.json]
//	gridtool growgrid [-buses 300] [-seed 300] [-dlr 12] [-format info|matpower] [-o case.m]
//	gridtool loadtest [-url http://localhost:8787] [-rps 10] [-duration 10s] [-mix evaluate=8,sweep=1,attack=1]
//	gridtool loadtest -closed [-concurrency 4] [-n 64] [-mix attack=1]   (saturation / attack-heavy shape)
package main

import (
	"flag"
	"fmt"
	"os"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/acflow"
	"github.com/edsec/edattack/internal/cliobs"
	"github.com/edsec/edattack/internal/dcflow"
	"github.com/edsec/edattack/internal/dispatch"
)

// subcommands dispatches the observatory verbs; everything else falls
// through to the legacy flag-driven study runner.
var subcommands = map[string]func(args []string) error{
	"report":    reportCmd,
	"tree":      treeCmd,
	"benchdiff": benchdiffCmd,
	"sweep":     sweepCmd,
	"growgrid":  growgridCmd,
	"loadtest":  loadtestCmd,
}

func main() {
	if len(os.Args) > 1 {
		if cmd, ok := subcommands[os.Args[1]]; ok {
			if err := cmd(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "gridtool:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridtool:", err)
		os.Exit(1)
	}
}

func run() error {
	caseName := flag.String("case", "case9", "benchmark case")
	exp := flag.String("exp", "info", "what to run: info, dcpf, acpf, ed, robust, lmp, n1, cascade, matpower")
	margin := flag.Float64("margin", 0.05, "derating margin for -exp robust")
	workers := cliobs.WorkersFlag()
	flag.Parse()

	net, err := edattack.LoadCase(*caseName)
	if err != nil {
		return err
	}
	switch *exp {
	case "info":
		return info(net)
	case "dcpf":
		return dcpf(net)
	case "acpf":
		return acpf(net)
	case "ed":
		return ed(net)
	case "robust":
		return robust(net, *margin)
	case "lmp":
		return lmp(net)
	case "n1":
		return n1(net, *workers)
	case "cascade":
		return cascadeRun(net)
	case "matpower":
		fmt.Print(edattack.FormatMATPOWER(net))
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

func info(net *edattack.Network) error {
	fmt.Printf("%s: %d buses, %d lines, %d generators\n",
		net.Name, len(net.Buses), len(net.Lines), len(net.Gens))
	fmt.Printf("demand %.1f MW, capacity %.1f MW (%.0f%% reserve)\n",
		net.TotalDemand(), net.TotalCapacity(),
		100*(net.TotalCapacity()/net.TotalDemand()-1))
	fmt.Printf("DLR lines (%d):\n", len(net.DLRLines()))
	for _, li := range net.DLRLines() {
		l := net.Lines[li]
		fmt.Printf("  line %d (%d-%d): static %.1f MVA, plausibility band [%.1f, %.1f]\n",
			li, l.From, l.To, l.RateMVA, l.DLRMin, l.DLRMax)
	}
	return nil
}

// nominalDispatch solves the flow-limited ED once for use as the base point.
func nominalDispatch(net *edattack.Network) ([]float64, error) {
	model, err := dispatch.BuildModel(net)
	if err != nil {
		return nil, err
	}
	res, err := model.Solve(nil)
	if err != nil {
		return nil, err
	}
	return res.P, nil
}

func dcpf(net *edattack.Network) error {
	p, err := nominalDispatch(net)
	if err != nil {
		return err
	}
	inj, err := dcflow.InjectionsFromDispatch(net, p)
	if err != nil {
		return err
	}
	res, err := dcflow.Solve(net, inj)
	if err != nil {
		return err
	}
	fmt.Println("DC power flow at the economic dispatch point:")
	ratings := net.Ratings(nil)
	for li := range net.Lines {
		l := net.Lines[li]
		util := 0.0
		if ratings[li] > 0 {
			util = 100 * abs(res.Flows[li]) / ratings[li]
		}
		fmt.Printf("  line %d (%d-%d): %8.1f MW  (%5.1f%% of rating)\n",
			li, l.From, l.To, res.Flows[li], util)
	}
	return nil
}

func acpf(net *edattack.Network) error {
	p, err := nominalDispatch(net)
	if err != nil {
		return err
	}
	res, err := acflow.Solve(net, p, acflow.Options{MaxIter: 50})
	if err != nil {
		return err
	}
	fmt.Printf("AC power flow converged in %d iterations; losses %.2f MW; slack %.1f MW\n",
		res.Iterations, res.LossMW, res.SlackP)
	for i := range net.Buses {
		fmt.Printf("  bus %3d: %.4f pu ∠ %7.3f°\n", net.Buses[i].ID, res.Vm[i], res.Va[i]*180/3.14159265)
	}
	return nil
}

func ed(net *edattack.Network) error {
	model, err := dispatch.BuildModel(net)
	if err != nil {
		return err
	}
	res, err := model.Solve(nil)
	if err != nil {
		return err
	}
	fmt.Printf("economic dispatch: total cost $%.2f/h\n", res.Cost)
	for i := range net.Gens {
		g := net.Gens[i]
		fmt.Printf("  gen %2d @ bus %3d: %8.2f MW  (marginal $%.2f/MWh)\n",
			g.ID, g.Bus, res.P[i], g.MarginalCost(res.P[i]))
	}
	if len(res.Binding) > 0 {
		fmt.Println("congested lines:")
		for _, li := range res.Binding {
			l := net.Lines[li]
			fmt.Printf("  line %d (%d-%d): flow %.1f MW, shadow price %.3f $/MWh\n",
				li, l.From, l.To, res.Flows[li], res.Dual(li))
		}
	}
	return nil
}

func robust(net *edattack.Network, margin float64) error {
	model, err := dispatch.BuildModel(net)
	if err != nil {
		return err
	}
	nominal, err := model.Solve(nil)
	if err != nil {
		return err
	}
	rob, err := model.SolveRobust(margin)
	if err != nil {
		return fmt.Errorf("robust dispatch with %.0f%% margin: %w", 100*margin, err)
	}
	fmt.Printf("attack-aware dispatch (Section VII-iv), %.0f%% DLR derating:\n", 100*margin)
	fmt.Printf("  nominal cost: $%.2f/h\n  robust cost:  $%.2f/h (premium %.2f%%)\n",
		nominal.Cost, rob.Cost, 100*(rob.Cost/nominal.Cost-1))
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func lmp(net *edattack.Network) error {
	model, err := dispatch.BuildModel(net)
	if err != nil {
		return err
	}
	res, err := model.Solve(nil)
	if err != nil {
		return err
	}
	prices, err := model.LMPs(res)
	if err != nil {
		return err
	}
	rent, err := model.CongestionRent(res)
	if err != nil {
		return err
	}
	fmt.Printf("locational marginal prices (congestion rent $%.2f/h):\n", rent)
	for i := range net.Buses {
		fmt.Printf("  bus %3d: %8.3f $/MWh\n", net.Buses[i].ID, prices[i])
	}
	return nil
}

func n1(net *edattack.Network, workers int) error {
	model, err := dispatch.BuildModel(net)
	if err != nil {
		return err
	}
	res, err := model.Solve(nil)
	if err != nil {
		return err
	}
	// The dispatch model already factored the network for its PTDF; derive
	// the LODF from it instead of factoring a second time.
	lodf, err := edattack.ComputeLODFFromPTDF(net, model.PTDF())
	if err != nil {
		return err
	}
	rep, err := edattack.ScreenN1Parallel(lodf, res.Flows, net.Ratings(nil), workers)
	if err != nil {
		return err
	}
	fmt.Printf("N-1 screen at the economic dispatch point:\n")
	fmt.Printf("  insecure outages: %d of %d lines (%d islanding outages skipped)\n",
		rep.InsecureOutages, len(net.Lines), rep.IslandingOutages)
	fmt.Printf("  post-contingency overloads: %d, worst %.1f%%\n", len(rep.Overloads), rep.WorstPct)
	for i, o := range rep.Overloads {
		if i >= 10 {
			fmt.Printf("  ... %d more\n", len(rep.Overloads)-10)
			break
		}
		fmt.Printf("  outage of line %d overloads line %d: %.1f MW vs %.1f (%.1f%%)\n",
			o.Outage, o.Line, o.FlowMW, o.RatingMW, o.Pct)
	}
	return nil
}

func cascadeRun(net *edattack.Network) error {
	model, err := dispatch.BuildModel(net)
	if err != nil {
		return err
	}
	res, err := model.Solve(nil)
	if err != nil {
		return err
	}
	// Stress scenario: true ratings 15% below what the dispatch assumed.
	ratings := net.Ratings(nil)
	for i := range ratings {
		ratings[i] *= 0.85
	}
	sim, err := edattack.SimulateCascade(net, res.P, ratings, edattack.CascadeOptions{TripThreshold: 1.05})
	if err != nil {
		return err
	}
	fmt.Printf("cascade under a 15%% rating deficit (trip threshold 105%%):\n")
	fmt.Printf("  %d line trips over %d rounds, %.1f MW shed, %d islands, %.1f MW still served\n",
		sim.LinesOut, sim.Rounds, sim.ShedMW, sim.Islands, sim.ServedMW)
	return nil
}
