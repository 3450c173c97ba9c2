package core_test

import (
	"testing"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/gatetest"
	"github.com/edsec/edattack/internal/telemetry"
)

// TestFlightGateIdenticalAttacks is the flight-recorder correctness gate:
// the budgeted attack must be bit-identical — target, direction, gain, and
// every manipulated rating — with the recorder on and off. The recorder is
// purely observational by construction (it never feeds back into solver
// decisions); this gate keeps that contract honest as instrumentation
// spreads through the solver layers.
func TestFlightGateIdenticalAttacks(t *testing.T) {
	for _, name := range []string{"case9", "case30", "case57"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k := caseKnowledge(t, name)
			solve := func(fl *telemetry.Flight) *core.Attack {
				o := gateOpts()
				o.Workers = 1
				o.Flight = fl
				att, err := core.FindOptimalAttack(k, o)
				if err != nil {
					t.Fatalf("flight=%v: %v", fl != nil, err)
				}
				return att
			}
			off := solve(nil)
			fl := telemetry.NewFlight(0)
			on := solve(fl)
			sameAttack(t, name+"/flight on-vs-off", off, on)
			if off.Stats.SimplexIterations != on.Stats.SimplexIterations ||
				off.Stats.Nodes != on.Stats.Nodes {
				t.Errorf("%s: solver work moved with the recorder on: %d/%d pivots, %d/%d nodes",
					name, off.Stats.SimplexIterations, on.Stats.SimplexIterations,
					off.Stats.Nodes, on.Stats.Nodes)
			}

			// The recording must actually cover the run: every solver layer
			// contributes its event kind, and the run closes with an attack
			// summary event carrying the final gain.
			kinds := map[telemetry.FlightKind]int{}
			for _, ev := range fl.Events() {
				kinds[ev.Kind]++
			}
			for _, want := range []telemetry.FlightKind{
				telemetry.FlightNode, telemetry.FlightLP, telemetry.FlightRound,
				telemetry.FlightSubproblem, telemetry.FlightIncumbent, telemetry.FlightAttack,
			} {
				if kinds[want] == 0 {
					t.Errorf("%s: no %v events recorded (%v)", name, want, kinds)
				}
			}
			if kinds[telemetry.FlightAttack] != 1 {
				t.Errorf("%s: %d attack summary events, want 1", name, kinds[telemetry.FlightAttack])
			}
			for _, ev := range fl.Events() {
				if ev.Kind == telemetry.FlightAttack && ev.Incumbent != on.GainPct {
					t.Errorf("%s: attack event gain %.17g != returned gain %.17g",
						name, ev.Incumbent, on.GainPct)
				}
			}
		})
	}
}

// TestFlightGateCase118Overhead measures the recorder's cost on the budgeted
// case118 attack. The hard assertions are on work (bit-identical gain and
// pivot/node totals); wall overhead is logged, with a generous 1.5×
// backstop so a pathological regression fails loudly without making the
// gate flaky on a noisy machine. The ≤5% target is checked by eye on the
// logged numbers from make bench-flight.
func TestFlightGateCase118Overhead(t *testing.T) {
	if testing.Short() {
		t.Skip("case118 gate skipped in -short mode")
	}
	k := caseKnowledge(t, "case118")
	run := func(fl *telemetry.Flight) (*core.Attack, time.Duration) {
		o := gateOpts()
		o.Workers = 1
		o.Flight = fl
		start := time.Now()
		att, err := core.FindOptimalAttack(k, o)
		if err != nil {
			t.Fatal(err)
		}
		return att, time.Since(start)
	}
	// Warm the caches once so the off/on comparison is not first-run-biased.
	run(nil)
	off, wallOff := run(nil)
	fl := telemetry.NewFlight(0)
	on, wallOn := run(fl)

	sameAttack(t, "case118/flight on-vs-off", off, on)
	if off.Stats.SimplexIterations != on.Stats.SimplexIterations {
		t.Errorf("pivot total moved with the recorder on: %d vs %d",
			off.Stats.SimplexIterations, on.Stats.SimplexIterations)
	}
	overhead := float64(wallOn-wallOff) / float64(wallOff) * 100
	if !gatetest.RaceEnabled && float64(wallOn) > 1.5*float64(wallOff) {
		t.Errorf("recorder overhead %.1f%% exceeds the 50%% backstop (off %v, on %v)",
			overhead, wallOff, wallOn)
	}
	t.Logf("case118 budgeted: off %v, on %v (%+.1f%% wall), %d events recorded (%d retained)",
		wallOff, wallOn, overhead, fl.Total(), fl.Len())
}
