package dispatch_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/lp"
)

// TestIncrementalResolveMatchesFresh replays a seeded, polish-shaped
// sequence of rating vectors on one model, which re-solves its persistent
// QP after writing only the row sides that changed into the QP solution it
// owns, and requires every Result to be bit-identical — P, Flows, the
// sparse line duals, Cost, and Binding — to a solve on a model built
// afresh with BuildModel. The sequence moves one DLR rating at a time to
// the candidates the dive's polish scores, repeats vectors, flips
// non-DLR lines between rated and unrated (u ≤ 0), follows an infeasible
// vector with a feasible one, moves the demand with SetDemands, and
// continues on a ShallowClone. Every line with a nonzero dual must bind.
func TestIncrementalResolveMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*grid.Network, error)
		long  bool
	}{{"case30", cases.Case30, false}, {"case57", cases.Case57, false}, {"case118", cases.Case118, true}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("case118 replays outside -short")
			}
			net, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := dispatch.BuildModel(net)
			if err != nil {
				t.Fatal(err)
			}
			m.Workspace = lp.NewWorkspace()
			var demands []float64 // nil: nominal
			solved, infeasible, congested, withDuals := 0, 0, 0, 0
			polishSequence(net, func(step int, ratings []float64, event string) {
				switch event {
				case "demand":
					demands = make([]float64, len(net.Buses))
					for i := range net.Buses {
						demands[i] = 0.97 * net.Buses[i].Pd
					}
					if err := m.SetDemands(demands); err != nil {
						t.Fatal(err)
					}
				case "clone":
					ws := m.Workspace
					m = m.ShallowClone()
					m.Workspace = ws
				}
				got, gerr := m.Solve(ratings)
				fresh, err := dispatch.BuildModel(net)
				if err != nil {
					t.Fatal(err)
				}
				if demands != nil {
					if err := fresh.SetDemands(demands); err != nil {
						t.Fatal(err)
					}
				}
				want, werr := fresh.Solve(ratings)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d (%s): incremental err %v, fresh err %v", step, event, gerr, werr)
				}
				if (event == "infeasible" && gerr == nil) || (event == "restore" && gerr != nil) {
					t.Fatalf("step %d (%s): err %v", step, event, gerr)
				}
				if gerr != nil {
					infeasible++
					return
				}
				solved++
				if d := resultDiff(want, got); d != "" {
					t.Fatalf("step %d (%s): incremental vs fresh: %s", step, event, d)
				}
				if len(got.Binding) > 0 {
					congested++
				}
				if len(got.LineDuals) > 0 {
					withDuals++
				}
				for _, d := range got.LineDuals {
					if !slices.Contains(got.Binding, d.Line) {
						t.Fatalf("step %d: line %d has dual %g but is not in Binding %v", step, d.Line, d.Dual, got.Binding)
					}
				}
			})
			if solved < 60 || congested < 20 || withDuals < 20 {
				t.Fatalf("%d solved, %d infeasible, %d congested, %d with line duals: the replay exercises too little",
					solved, infeasible, congested, withDuals)
			}
			t.Logf("%d solves (%d congested, %d with line duals), %d infeasible", solved, congested, withDuals, infeasible)
		})
	}
}

// polishSequence calls visit with 120 rating vectors shaped like the
// dive's polish: from the nominal ratings with the DLR lines at 90% of
// their static rating (so the sequence starts congested), each step moves
// one DLR line to a band edge, a grid point across the band, or a ±2% or
// ±8% step off its current value, or repeats the previous vector. Every
// 15th step flips a non-DLR line between rated and unrated (0 or −1). Step
// 40 is the band floor on every DLR line with every other rated line cut
// to 1 MW, which no dispatch satisfies, and step 41 restores the vector
// before it. Step 50 is marked "demand" and step 80 "clone". The vector is
// reused between steps.
func polishSequence(net *grid.Network, visit func(step int, ratings []float64, event string)) {
	r := rand.New(rand.NewSource(11))
	ratings := net.Ratings(nil)
	dlr := net.DLRLines()
	for _, li := range dlr {
		ratings[li] = 0.9 * net.Lines[li].RateMVA
	}
	var plain []int // rated non-DLR lines
	for li := range net.Lines {
		if !net.Lines[li].HasDLR && ratings[li] > 0 {
			plain = append(plain, li)
		}
	}
	static := slices.Clone(ratings)
	var saved []float64
	for step := 0; step < 120; step++ {
		event := "move"
		switch {
		case step == 40:
			saved = slices.Clone(ratings)
			for li := range ratings {
				if ratings[li] > 0 {
					ratings[li] = 1
				}
			}
			for _, li := range dlr {
				ratings[li] = net.Lines[li].DLRMin
			}
			event = "infeasible"
		case step == 41:
			copy(ratings, saved)
			event = "restore"
		case step%15 == 7:
			li := plain[r.Intn(len(plain))]
			if ratings[li] > 0 {
				ratings[li] = -float64(r.Intn(2)) // 0 or −1: unrated
			} else {
				ratings[li] = static[li]
			}
			event = "flip"
		case r.Intn(6) == 0:
			event = "repeat"
		default:
			li := dlr[r.Intn(len(dlr))]
			l := &net.Lines[li]
			width := l.DLRMax - l.DLRMin
			cands := []float64{
				l.DLRMin, l.DLRMax,
				l.DLRMin + 0.25*width, l.DLRMin + 0.5*width, l.DLRMin + 0.75*width,
				ratings[li] - 0.08*width, ratings[li] - 0.02*width,
				ratings[li] + 0.02*width, ratings[li] + 0.08*width,
			}
			ratings[li] = min(max(cands[r.Intn(len(cands))], l.DLRMin), l.DLRMax)
		}
		if step == 50 {
			event = "demand"
		}
		if step == 80 {
			event = "clone"
		}
		visit(step, ratings, event)
	}
}
