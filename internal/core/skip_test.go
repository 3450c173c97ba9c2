package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
)

// skipLedger collects the candidates the coordinate scans skipped, each
// solved anyway under core.WithSkipCheck, and records every one whose
// solve contradicts the skip's proof. A slack skip's solve must equal the
// slack ED bit for bit, or within roundoff (1e-9 relative) when tol is set;
// a wrong skip would move line flows by at least the 1e-6 slack margin.
type skipLedger struct {
	tol               bool
	mu                sync.Mutex
	slack, infeasible int
	bad               []string
}

func (l *skipLedger) check(c core.SkippedCandidate) {
	var bad string
	switch {
	case !c.Slack:
		if !errors.Is(c.Err, dispatch.ErrInfeasible) {
			bad = fmt.Sprintf("infeasibility skip solved with err %v", c.Err)
		}
	case c.Err != nil:
		bad = fmt.Sprintf("slack skip failed to solve: %v", c.Err)
	case c.SlackED == nil:
		bad = "slack skip without a slack ED"
	default:
		bad = dispatchDiff(c.Result, c.SlackED, l.tol)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.Slack {
		l.slack++
	} else {
		l.infeasible++
	}
	if bad != "" && len(l.bad) < 10 {
		l.bad = append(l.bad, bad)
	}
}

// dispatchDiff describes the first dispatch or flow of got that differs
// from want's, bit for bit or, with tol, by more than 1e-9 relative; ""
// when none does.
func dispatchDiff(got, want *dispatch.Result, tol bool) string {
	for _, v := range [...]struct {
		name      string
		got, want []float64
	}{{"P", got.P, want.P}, {"flow", got.Flows, want.Flows}} {
		for i, w := range v.want {
			g := v.got[i]
			if math.Float64bits(g) != math.Float64bits(w) && (!tol || math.Abs(g-w) > 1e-9*(1+math.Abs(w))) {
				return fmt.Sprintf("slack skip: %s[%d] = %v, the slack ED's is %v", v.name, i, g, w)
			}
		}
	}
	return ""
}

// report fails t with the contradictions recorded since the last report.
func (l *skipLedger) report(t *testing.T, label string) {
	t.Helper()
	for _, b := range l.bad {
		t.Errorf("%s: %s", label, b)
	}
	l.bad = nil
}

// skipCase is one attack instance: a network and its true DLR ratings.
type skipCase struct {
	name string
	net  *grid.Network
	ud   map[int]float64
}

func (c skipCase) knowledge(t *testing.T) *core.Knowledge {
	t.Helper()
	m, err := dispatch.BuildModel(c.net)
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.NewKnowledge(m, c.ud)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// staticRatings is the true-DLR vector at the lines' static ratings.
func staticRatings(net *grid.Network) map[int]float64 {
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		l := &net.Lines[li]
		ud[li] = min(max(l.RateMVA, l.DLRMin), l.DLRMax)
	}
	return ud
}

// drawnRatings is the benchmark's true-DLR draw: every static rating
// scaled by U[0.95, 1.05] and clamped into its band.
func drawnRatings(net *grid.Network, seed int64) map[int]float64 {
	r := rand.New(rand.NewSource(seed))
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		l := &net.Lines[li]
		ud[li] = min(max(l.RateMVA*(0.95+0.1*r.Float64()), l.DLRMin), l.DLRMax)
	}
	return ud
}

// checkSkips runs the case's attack with o, and the coordinate-ascent
// attacker, each once as they run and once with every skipped candidate
// solved into l, and asserts that the two runs agree and that every skip
// was sound.
func checkSkips(t *testing.T, c skipCase, o core.Options, l *skipLedger) {
	t.Helper()
	want, err := core.FindOptimalAttack(c.knowledge(t), o)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	got, err := core.FindOptimalAttack(c.knowledge(t), core.WithSkipCheck(o, l.check))
	if err != nil {
		t.Fatalf("%s with skip check: %v", c.name, err)
	}
	sameAttack(t, c.name+" with skip check", want, got)

	co := core.CoordinateOptions{GridPoints: 5, MaxSweeps: 3}
	want, err = core.CoordinateAscentAttack(c.knowledge(t), co)
	if err != nil && !errors.Is(err, core.ErrNoFeasibleAttack) {
		t.Fatalf("%s coordinate: %v", c.name, err)
	}
	got, err2 := core.CoordinateAscentAttack(c.knowledge(t), core.WithCoordinateSkipCheck(co, l.check))
	if (err == nil) != (err2 == nil) {
		t.Fatalf("%s coordinate: err %v with skip check, %v without", c.name, err2, err)
	}
	if err == nil {
		sameAttack(t, c.name+" coordinate with skip check", want, got)
	}
	l.report(t, c.name)
}

// TestScanSkipsChangeNothing solves every candidate the dive, polish and
// coordinate-ascent scans skip and holds each skip to its proof: a slack
// skip's dispatch and flows equal the slack ED's bit for bit, and an
// infeasibility skip's ED is infeasible. The attacks with and without the
// check solves are the same. Cases: case9 to case118 at static ratings and
// at a benchmark draw (case118 outside -short).
func TestScanSkipsChangeNothing(t *testing.T) {
	builds := []struct {
		name  string
		build func() (*grid.Network, error)
	}{{"case9", cases.Case9}, {"case30", cases.Case30}, {"case57", cases.Case57}, {"case118", cases.Case118}}
	for _, b := range builds {
		if b.name == "case118" && testing.Short() {
			continue
		}
		t.Run(b.name, func(t *testing.T) {
			for _, at := range []string{"static", "drawn"} {
				net, err := b.build()
				if err != nil {
					t.Fatal(err)
				}
				ud := staticRatings(net)
				if at == "drawn" {
					ud = drawnRatings(net, 1)
				}
				l := &skipLedger{}
				checkSkips(t, skipCase{b.name + " " + at, net, ud}, servingOptions, l)
				t.Logf("%s: %d slack skips, %d infeasibility skips", at, l.slack, l.infeasible)
				if l.slack == 0 {
					t.Errorf("%s: no slack skip; the check covers nothing", at)
				}
			}
		})
	}
}

// TestScanSkipsChangeNothingSynthetic runs the skip check over generated
// grids: cases.Synthetic with b buses, b/2 generators, b/2 chords and two
// DLR lines at rating margins 1.0, 1.15 and 1.45, true DLR at the static
// ratings, default options at one worker. Some of these grids put a
// generator exactly at a limit with a zero multiplier, where two solves of
// the same optimum can end on different working sets and differ in the
// last bits, so the dispatches are compared within roundoff.
func TestScanSkipsChangeNothingSynthetic(t *testing.T) {
	start := time.Now()
	l := &skipLedger{tol: true}
	grids := 0
	for _, b := range []int{6, 8, 10, 12} {
		for _, m := range []float64{1.0, 1.15, 1.45} {
			for s := int64(1); s <= 5; s++ {
				net, err := cases.Synthetic(cases.SyntheticOptions{
					Buses: b, Gens: b / 2, ExtraLines: b / 2, DLRLines: 2, Seed: s, RatingMargin: m,
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("synthetic b=%d m=%g s=%d", b, m, s)
				checkSkips(t, skipCase{name, net, staticRatings(net)}, core.Options{Workers: 1}, l)
				grids++
			}
		}
	}
	t.Logf("%d grids in %s: %d slack skips, %d infeasibility skips", grids, time.Since(start), l.slack, l.infeasible)
	if l.slack == 0 || l.infeasible == 0 {
		t.Errorf("%d slack and %d infeasibility skips; the check must cover both", l.slack, l.infeasible)
	}
}

// TestScanSkipsNeedStrictConvexity gives one case9 generator a linear
// cost. The ED optimum is then not unique, so no slack skip may fire;
// infeasibility skips still hold and are checked.
func TestScanSkipsNeedStrictConvexity(t *testing.T) {
	net, err := cases.Case9()
	if err != nil {
		t.Fatal(err)
	}
	net.Gens[0].CostA = 0
	for _, ud := range []map[int]float64{staticRatings(net), drawnRatings(net, 1)} {
		l := &skipLedger{}
		checkSkips(t, skipCase{"case9 with a linear cost", net, ud}, servingOptions, l)
		if l.slack != 0 {
			t.Errorf("%d slack skips with a linear-cost generator, want 0", l.slack)
		}
	}
}
