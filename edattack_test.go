package edattack_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/dlr"
)

func TestLoadCaseNames(t *testing.T) {
	for _, name := range edattack.CaseNames() {
		n, err := edattack.LoadCase(name)
		if err != nil {
			t.Fatalf("LoadCase(%s): %v", name, err)
		}
		if len(n.Buses) == 0 {
			t.Fatalf("LoadCase(%s): empty network", name)
		}
	}
	if _, err := edattack.LoadCase("nope"); err == nil {
		t.Fatal("want unknown-case error")
	}
}

// TestAttackOptionsFields pins the public attack options. A/B switches that
// only a gate flips belong in internal/core's export_test.go, not here, so
// adding a field must be a deliberate edit of this list.
func TestAttackOptionsFields(t *testing.T) {
	want := []string{"Method", "MaxRounds", "MaxNodes", "RelGap", "Workers", "Metrics", "Tracer", "Flight", "Ctx", "Warm"}
	var got []string
	typ := reflect.TypeOf(edattack.AttackOptions{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AttackOptions exported fields %v, want %v", got, want)
	}
}

func TestQuickstartFlow(t *testing.T) {
	net, err := edattack.LoadCase("case3")
	if err != nil {
		t.Fatal(err)
	}
	model, err := edattack.NewDispatchModel(net)
	if err != nil {
		t.Fatal(err)
	}
	k, err := edattack.NewKnowledge(model, map[int]float64{1: 130, 2: 120})
	if err != nil {
		t.Fatal(err)
	}
	attack, err := edattack.FindOptimalAttack(k, edattack.AttackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(attack.GainPct-100*(200.0/120-1)) > 1e-3 {
		t.Fatalf("facade gain = %v", attack.GainPct)
	}
	ev, err := edattack.EvaluateAttack(k, attack.DLR)
	if err != nil || !ev.Feasible {
		t.Fatalf("replay: %v %v", ev, err)
	}
	ac, err := edattack.EvaluateDispatchAC(net, attack.PredictedP, net.Ratings(k.TrueDLR))
	if err != nil {
		t.Fatal(err)
	}
	if len(ac.Violations) == 0 {
		t.Fatal("AC evaluation must confirm the violation")
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	net, _ := edattack.LoadCase("case3")
	model, _ := edattack.NewDispatchModel(net)
	k, err := edattack.NewKnowledge(model, map[int]float64{1: 130, 2: 120})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edattack.GreedyAttack(k); err != nil {
		t.Fatal(err)
	}
	if _, err := edattack.RandomAttack(k, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := edattack.CoordinateAscentAttack(k, edattack.CoordinateOptions{GridPoints: 3, MaxSweeps: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesCase3(t *testing.T) {
	net, err := edattack.LoadCase("case3")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 4 setup: sinusoidal DLRs in [100, 200] with a
	// phase offset between the two lines; a two-peak demand profile.
	cfg := edattack.TimeSeriesConfig{
		Net:         net,
		DemandScale: dlr.TwoPeakDemand(0.58, 0.72, 0.78),
		RatingPatterns: map[int]edattack.Pattern{
			1: dlr.Sinusoidal(100, 200, 2),
			2: dlr.Sinusoidal(100, 200, 9),
		},
		StepMinutes: 120, // coarse for the unit test; edsim uses 15
		Attacker:    edattack.AttackerOptimal,
		ACEvaluate:  true,
	}
	steps, err := edattack.RunTimeSeries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 12 {
		t.Fatalf("steps = %d, want 12", len(steps))
	}
	attacked := 0
	for _, s := range steps {
		if !s.Feasible {
			continue
		}
		if s.Attack == nil {
			continue
		}
		attacked++
		// Attack DLR values stay in band.
		for li, v := range s.Attack.DLR {
			l := net.Lines[li]
			if v < l.DLRMin-1e-6 || v > l.DLRMax+1e-6 {
				t.Fatalf("hour %v: attack value %v out of band on line %d", s.Hour, v, li)
			}
		}
		// DC attack cost cannot be below the unattacked optimum (the
		// manipulated feasible set is never larger on DLR lines pushed
		// down, but can be larger when pushed up — so only sanity-check
		// positivity here).
		if s.CostDC <= 0 || s.NoAttackCost <= 0 {
			t.Fatalf("hour %v: non-positive costs %v %v", s.Hour, s.CostDC, s.NoAttackCost)
		}
		// Note: GainACPct may exceed GainDCPct (and be positive when the
		// DC gain is zero) because apparent power includes reactive
		// flow — exactly the paper's Fig. 4b observation.
	}
	if attacked == 0 {
		t.Fatal("no step produced an attack")
	}
}

func TestTimeSeriesValidation(t *testing.T) {
	if _, err := edattack.RunTimeSeries(edattack.TimeSeriesConfig{}); err == nil {
		t.Fatal("want nil-net error")
	}
	net, _ := edattack.LoadCase("case3")
	if _, err := edattack.RunTimeSeries(edattack.TimeSeriesConfig{Net: net}); err == nil {
		t.Fatal("want missing-pattern error")
	}
}

func TestTimeSeriesAttackerNone(t *testing.T) {
	net, _ := edattack.LoadCase("case3")
	cfg := edattack.TimeSeriesConfig{
		Net:      net,
		Attacker: edattack.AttackerNone,
		RatingPatterns: map[int]edattack.Pattern{
			1: dlr.Constant(160),
			2: dlr.Constant(160),
		},
		StepMinutes: 360,
	}
	steps, err := edattack.RunTimeSeries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if s.Attack != nil {
			t.Fatal("AttackerNone must not attack")
		}
		if !s.Feasible || s.NoAttackCost <= 0 {
			t.Fatalf("baseline step broken: %+v", s)
		}
	}
}

func TestEMSFacade(t *testing.T) {
	net, err := edattack.LoadCase("case3-fig8")
	if err != nil {
		t.Fatal(err)
	}
	profile, err := edattack.EMSProfileByName("PowerWorld")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(edattack.EMSProfiles()); got != 5 {
		t.Fatalf("profiles = %d, want 5", got)
	}
	proc, err := edattack.NewEMSProcess(profile, net, 42)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := edattack.NewEMSExploit(proc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := edattack.RunMemoryAttack(proc, exp, map[int]float64{1: 120, 2: 240}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 2 {
		t.Fatalf("attack lines = %d", len(rep.Lines))
	}
	acc, err := edattack.EMSForensicsAccuracy(proc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.AccuracyPct != 100 {
		t.Fatalf("forensics accuracy = %v", acc.AccuracyPct)
	}
	ctrl, err := edattack.NewEMSController(proc)
	if err != nil {
		t.Fatal(err)
	}
	res, ev, err := ctrl.StepAndEvaluate([]float64{150, 150, 150})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || ev == nil || len(ev.Violations) == 0 {
		t.Fatal("post-attack controller step must violate true ratings")
	}
}

func TestErrorsExported(t *testing.T) {
	net, _ := edattack.LoadCase("case3")
	model, _ := edattack.NewDispatchModel(net)
	_, err := model.Solve([]float64{10, 10, 10})
	if !errors.Is(err, edattack.ErrInfeasible) {
		t.Fatalf("want exported ErrInfeasible, got %v", err)
	}
}

func TestAttackerKindString(t *testing.T) {
	kinds := []edattack.AttackerKind{
		edattack.AttackerNone, edattack.AttackerOptimal,
		edattack.AttackerGreedy, edattack.AttackerCoordinate,
		edattack.AttackerKind(99),
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestTimeSeriesRobustMarginPremium(t *testing.T) {
	net, _ := edattack.LoadCase("case3")
	base := edattack.TimeSeriesConfig{
		Net:      net,
		Attacker: edattack.AttackerNone,
		RatingPatterns: map[int]edattack.Pattern{
			1: dlr.Constant(160),
			2: dlr.Constant(160),
		},
		StepMinutes: 360,
	}
	plain, err := edattack.RunTimeSeries(base)
	if err != nil {
		t.Fatal(err)
	}
	base.RobustMarginPct = 0.05
	robust, err := edattack.RunTimeSeries(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if !plain[i].Feasible || !robust[i].Feasible {
			t.Fatalf("step %d infeasible", i)
		}
		if robust[i].NoAttackCost < plain[i].NoAttackCost-1e-9 {
			t.Fatalf("derated dispatch cheaper than nominal at step %d: %v vs %v",
				i, robust[i].NoAttackCost, plain[i].NoAttackCost)
		}
	}
}
