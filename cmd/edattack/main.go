// Command edattack computes the adversary-optimal DLR manipulation for a
// benchmark case (the paper's Algorithm 1) and reports its predicted and
// AC-realized impact.
//
// Usage:
//
//	edattack -case case3 [-method complementarity|bigm] [-nodes N]
//	         [-ud line=value,...] [-baselines] [-ac]
//	         [-trace spans.jsonl] [-metrics metrics.json] [-debug localhost:6060]
//	         [-flight flight.json] [-journal run.journal]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/cliobs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "edattack:", err)
		os.Exit(1)
	}
}

func run() error {
	caseName := flag.String("case", "case3", "benchmark case ("+strings.Join(edattack.CaseNames(), ", ")+")")
	method := flag.String("method", "complementarity", "bilevel reformulation: complementarity or bigm")
	maxNodes := flag.Int("nodes", 0, "branch-and-bound node budget per subproblem (0 = default)")
	udFlag := flag.String("ud", "", "true DLR values as line=value,... (default: static ratings)")
	baselines := flag.Bool("baselines", false, "also run greedy and random baselines")
	acEval := flag.Bool("ac", false, "evaluate the attack under the nonlinear (AC) model")
	obsFlags := cliobs.RegisterFlags()
	workers := cliobs.WorkersFlag()
	flag.Parse()

	obs, err := obsFlags.Init()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obs.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "edattack:", cerr)
		}
	}()

	net, err := edattack.LoadCase(*caseName)
	if err != nil {
		return err
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		return err
	}
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		ud[li] = net.Lines[li].RateMVA
	}
	if *udFlag != "" {
		for _, kv := range strings.Split(*udFlag, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad -ud entry %q (want line=value)", kv)
			}
			li, err := strconv.Atoi(parts[0])
			if err != nil {
				return fmt.Errorf("bad -ud line %q: %w", parts[0], err)
			}
			v, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return fmt.Errorf("bad -ud value %q: %w", parts[1], err)
			}
			ud[li] = v
		}
	}
	k, err := edattack.NewKnowledge(model, ud)
	if err != nil {
		return err
	}

	opts := edattack.AttackOptions{
		MaxNodes: *maxNodes, Workers: *workers,
		Metrics: obs.Metrics, Tracer: obs.Tracer, Flight: obs.Flight,
	}
	model.Metrics = obs.Metrics
	switch *method {
	case "complementarity":
		opts.Method = edattack.MethodComplementarity
	case "bigm":
		opts.Method = edattack.MethodBigM
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	fmt.Printf("case %s: %d buses, %d lines (%d DLR), %d generators, demand %.0f MW\n",
		net.Name, len(net.Buses), len(net.Lines), len(net.DLRLines()), len(net.Gens), net.TotalDemand())

	att, err := edattack.FindOptimalAttack(k, opts)
	if err != nil {
		return err
	}
	if obs.Journal != nil {
		if jerr := obs.Journal.Append("attack.computed", map[string]any{
			"case":     net.Name,
			"method":   *method,
			"target":   att.TargetLine,
			"dir":      att.Direction,
			"gain_pct": att.GainPct,
			"nodes":    att.Nodes,
			"exact":    att.Exact,
		}); jerr != nil {
			fmt.Fprintln(os.Stderr, "edattack: journal:", jerr)
		}
	}
	printAttack(net, k, "optimal ("+*method+")", att)

	if *baselines {
		if grd, err := edattack.GreedyAttack(k); err == nil {
			printAttack(net, k, "greedy vertex", grd)
		}
		if rnd, err := edattack.RandomAttack(k, 100, 7); err == nil {
			printAttack(net, k, "random (100 samples)", rnd)
		}
	}
	if *acEval {
		ev, err := edattack.EvaluateDispatchAC(net, att.PredictedP, net.Ratings(ud))
		if err != nil {
			return fmt.Errorf("AC evaluation: %w", err)
		}
		fmt.Printf("\nAC (nonlinear) evaluation:\n  realized cost: $%.0f/h  worst violation: %.1f%%\n",
			ev.Cost, ev.WorstPct)
		for _, v := range ev.Violations {
			l := net.Lines[v.Line]
			fmt.Printf("  line %d (%d-%d): loading %.1f MVA vs true rating %.1f (%.1f%% over)\n",
				v.Line, l.From, l.To, v.LoadingMVA, v.RatingMVA, v.Pct)
		}
	}
	return nil
}

func printAttack(net *edattack.Network, k *edattack.Knowledge, label string, att *edattack.Attack) {
	fmt.Printf("\n%s attack: U_cap = %.2f%% (target line %d, direction %+d, exact=%v)\n",
		label, att.GainPct, att.TargetLine, att.Direction, att.Exact)
	lines := make([]int, 0, len(att.DLR))
	for li := range att.DLR {
		lines = append(lines, li)
	}
	sort.Ints(lines)
	for _, li := range lines {
		l := net.Lines[li]
		fmt.Printf("  line %d (%d-%d): u^d %.1f → uᵃ %.1f   [band %.1f, %.1f]\n",
			li, l.From, l.To, k.TrueDLR[li], att.DLR[li], l.DLRMin, l.DLRMax)
	}
	fmt.Printf("  predicted defender cost: $%.0f/h, B&B nodes: %d\n", att.PredictedCost, att.Nodes)
	if s := att.Stats; s != nil {
		fmt.Printf("  solver: %d subproblems (%d pruned), %d simplex pivots, %d row-gen rounds, %v\n",
			s.Subproblems, s.Pruned, s.SimplexIterations, s.Rounds, s.WallTime.Round(time.Microsecond))
		if s.Nodes > 0 {
			fmt.Printf("  warm starts: %d/%d nodes (%.0f%% hit rate), %d fallbacks\n",
				s.WarmNodes, s.Nodes, 100*float64(s.WarmNodes)/float64(s.Nodes), s.WarmFallbacks)
		}
		if att.Exact {
			fmt.Printf("  bound: proven optimal (gap 0)\n")
		} else if !math.IsInf(s.BestBoundPct, 1) {
			fmt.Printf("  bound: U_cap ≤ %.2f%% (gap %.2f%%, %d subproblems truncated)\n",
				s.BestBoundPct, 100*s.Gap, s.Truncated)
		} else {
			fmt.Printf("  bound: none proven (%d subproblems truncated)\n", s.Truncated)
		}
	}
}
