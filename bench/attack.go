package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// exactOptions run the search to a proven optimum, sequentially.
func exactOptions() core.Options { return core.Options{Workers: 1} }

// servingOptions are the options edserve runs a request carrying
// max_nodes 40 and rel_gap 1e-3 with: a per-subproblem node budget, a loose
// gap, and a sequential fan-out (budgeted attacks are only reproducible at
// one worker).
func servingOptions() core.Options {
	return core.Options{MaxNodes: 40, RelGap: 1e-3, Workers: 1}
}

// replayTolerance bounds |predicted − replayed| gain in percentage points.
// The bilevel prediction and the operator replay reach the same dispatch by
// different solver paths; their roundoff differs by ~1e-5 on case57.
const replayTolerance = 1e-4

// pinnedStatic holds known answers for an attack on static true ratings,
// which every set-up runs; the serving budget and the exact search agree.
var pinnedStatic = map[string]struct {
	gain        float64
	target, dir int
}{
	"case57": {1.038059106, 59, 1},
}

// attackSpec configures a closed-loop library attack workload.
type attackSpec struct {
	cases      []string // operation i attacks cases[i%len(cases)]
	opts       core.Options
	warmRepeat bool // re-run each attack on its own Knowledge and WarmCache
	exact      bool // every attack must be proven optimal
}

// attackInst runs one cold attack per operation: a fresh dispatch model,
// Knowledge and WarmCache for true ratings drawn from the seed, solved with
// core.FindOptimalAttack. One client, closed loop.
type attackInst struct {
	spec     attackSpec
	nets     map[string]*grid.Network
	checkers map[string]*dispatch.Model // replay models, set by prepare
	pr       *probe
	rng      *rand.Rand
	attacks  float64 // cold attacks answered
	stats    tally
	coreS    float64 // time inside core.FindOptimalAttack of the attacks reg counts
}

func startAttack(spec attackSpec, p params, pr *probe) (instance, error) {
	a := &attackInst{
		spec: spec, nets: map[string]*grid.Network{}, pr: pr,
		rng: rngFor(p.seed, "true-dlr"), stats: tally{},
	}
	for _, name := range spec.cases {
		net, err := cases.Load(name)
		if err != nil {
			return nil, err
		}
		a.nets[name] = net
	}
	// One attack on static ratings fills the solver pools before timing and
	// checks a pinned answer where the case has one.
	name := spec.cases[len(spec.cases)-1]
	net := a.nets[name]
	att, k, w, err := a.solve(net, staticDLR(net), nil, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up attack on %s: %w", name, err)
	}
	if pin, ok := pinnedStatic[name]; ok &&
		(math.Abs(att.GainPct-pin.gain) > 5e-10 || att.TargetLine != pin.target || att.Direction != pin.dir) {
		return nil, fmt.Errorf("set-up attack on %s: gain %.9f line %d dir %d, want %.9f line %d dir %d",
			name, att.GainPct, att.TargetLine, att.Direction, pin.gain, pin.target, pin.dir)
	}
	if spec.warmRepeat {
		again, err := core.FindOptimalAttack(k, a.options(w, nil))
		if err != nil {
			return nil, fmt.Errorf("set-up warm repeat on %s: %w", name, err)
		}
		if diff := sameAttack(att, again); diff != "" {
			return nil, fmt.Errorf("set-up warm repeat on %s differs: %s", name, diff)
		}
	}
	return a, nil
}

func (a *attackInst) options(w *core.WarmCache, reg *telemetry.Registry) core.Options {
	o := a.spec.opts
	o.Warm = w
	o.Metrics = reg
	o.Flight = a.pr.flight
	return o
}

// solve runs one cold attack: model, Knowledge, WarmCache, search, with
// reg attached to each. Spans go under parent for request req.
func (a *attackInst) solve(net *grid.Network, ud map[int]float64, reg *telemetry.Registry, parent, req int64) (*core.Attack, *core.Knowledge, *core.WarmCache, error) {
	spans := a.pr.spans
	t := time.Now()
	m, err := dispatch.BuildModel(net)
	if err != nil {
		return nil, nil, nil, err
	}
	m.Metrics = reg
	t1 := time.Now()
	spans.add(parent, req, "dispatch.BuildModel", t, t1)
	k, err := core.NewKnowledge(m, ud)
	if err != nil {
		return nil, nil, nil, err
	}
	w := core.NewWarmCache()
	w.Metrics = reg
	t2 := time.Now()
	spans.add(parent, req, "core.NewKnowledge", t1, t2)
	att, err := core.FindOptimalAttack(k, a.options(w, reg))
	t3 := time.Now()
	spans.add(parent, req, "core.FindOptimalAttack", t2, t3)
	if reg != nil {
		a.coreS += t3.Sub(t2).Seconds()
	}
	return att, k, w, err
}

// input is operation i's case and true ratings: each DLR line's static
// rating × U[0.95, 1.05], clamped to its band. Inputs come from one seeded
// stream, so they must be drawn in operation order.
func (a *attackInst) input(i int) (string, map[int]float64) {
	name := a.spec.cases[i%len(a.spec.cases)]
	return name, drawDLR(a.rng, a.nets[name], 0.95, 1.05)
}

func (a *attackInst) measure(d time.Duration, ref *refClock) phase {
	var ops []op
	spans := a.pr.spans
	t0 := time.Now()
	free := time.Duration(0) // when the client became free: the next op's due time
	for i := 0; time.Since(t0) < d; i++ {
		name, ud := a.input(i)
		net := a.nets[name]
		req := int64(i + 1)
		o := op{idx: i, kind: kindAttack, timed: true, timing: timing{due: free}}
		if a.spec.warmRepeat {
			o.kind = "attack_cold"
		}
		id := spans.reserve()
		o.sent = time.Since(t0)
		att, k, w, err := a.solve(net, ud, a.pr.solver, id, req)
		o.done = time.Since(t0)
		o.end = t0.Add(o.done)
		o.solve = o.done - o.sent
		spans.finish(id, a.pr.root, req, "op."+o.kind, t0.Add(o.due), o.end)
		if err != nil {
			o.fail = err.Error()
			ops = append(ops, o)
			free = time.Since(t0)
			continue
		}
		o.wrong = a.check(name, ud, att)
		if i < digestOps {
			o.answer = attackAnswer(att)
		}
		ops = append(ops, o)
		a.attacks++
		a.stats["attack_nodes"] += float64(att.Stats.Nodes)
		a.stats["attack_warm_nodes"] += float64(att.Stats.WarmNodes)
		if a.spec.warmRepeat {
			ops = append(ops, a.repeat(i, req, t0, att, k, w))
		}
		if ref.due() {
			ref.tick()
		}
		free = time.Since(t0)
	}
	return phase{ops: ops}
}

// repeat re-runs an attack on the Knowledge (and its dispatch memo) and the
// WarmCache of the cold run, as a server does for a repeat request, and
// requires the identical answer.
func (a *attackInst) repeat(i int, req int64, t0 time.Time, cold *core.Attack, k *core.Knowledge, w *core.WarmCache) op {
	reg := a.pr.warm
	w.Metrics, k.Model.Metrics = reg, reg
	spans := a.pr.spans
	id := spans.reserve()
	r := op{idx: i, kind: "attack_warm", timing: timing{sent: time.Since(t0)}}
	r.due = r.sent
	start := time.Now()
	again, err := core.FindOptimalAttack(k, a.options(w, reg))
	r.done = time.Since(t0)
	r.solve = r.done - r.sent
	spans.add(id, req, "core.FindOptimalAttack", start, t0.Add(r.done))
	spans.finish(id, a.pr.root, req, "op.attack_warm", start, t0.Add(r.done))
	if err != nil {
		r.fail = err.Error()
		return r
	}
	if diff := sameAttack(cold, again); diff != "" {
		r.wrong = "warm repeat differs from cold: " + diff
	}
	return r
}

// prepare builds the models attacks are replayed on, one per case, apart
// from every model an attack comes from.
func (a *attackInst) prepare() error {
	a.checkers = map[string]*dispatch.Model{}
	for name, net := range a.nets {
		m, err := dispatch.BuildModel(net)
		if err != nil {
			return fmt.Errorf("replay model for %s: %w", name, err)
		}
		a.checkers[name] = m
	}
	return nil
}

// check replays an attack through the operator's dispatch and enforces
// exactness where the workload promises it, returning why the answer is
// wrong ("" when it is right). It runs between operations, outside their
// timing, so nothing an attack returns outlives its operation.
func (a *attackInst) check(name string, trueDLR map[int]float64, att *core.Attack) string {
	if msg := replay(a.checkers[name], trueDLR, att); msg != "" {
		return msg
	}
	if a.spec.exact && (!att.Exact || att.Stats.Gap != 0) {
		return fmt.Sprintf("exact=%v gap=%g, want a proven optimum", att.Exact, att.Stats.Gap)
	}
	return ""
}

// replay evaluates att's manipulated ratings through EvaluateAttack. The
// violation the replayed dispatch causes on the attacked line, in the
// attacked direction, must match the predicted gain, and the realized U_cap
// (the worst violation over every DLR line) must be at least that: an
// attack aimed at one line can overload another line more.
func replay(m *dispatch.Model, trueDLR map[int]float64, att *core.Attack) string {
	k, err := core.NewKnowledge(m, trueDLR)
	if err != nil {
		return err.Error()
	}
	ev, err := k.EvaluateAttack(att.DLR)
	if err != nil {
		return "replay: " + err.Error()
	}
	if !ev.Feasible {
		return "replay: the operator's dispatch is infeasible under the attack"
	}
	realized := ev.GainPct
	if att.TargetLine >= 0 {
		f := ev.Dispatch.Flows[att.TargetLine]
		realized = max(0, 100*(float64(att.Direction)*f/trueDLR[att.TargetLine]-1))
	}
	if d := math.Abs(realized - att.GainPct); d > replayTolerance {
		return fmt.Sprintf("replayed gain %.9f on line %d differs from predicted %.9f by %.3g",
			realized, att.TargetLine, att.GainPct, d)
	}
	if ev.GainPct < att.GainPct-replayTolerance {
		return fmt.Sprintf("replayed U_cap %.9f falls short of predicted %.9f", ev.GainPct, att.GainPct)
	}
	return ""
}

func (a *attackInst) layers() layerInputs {
	in := layerInputs{solver: a.pr.since(a.pr.solver)}
	in.solver.addScaled(a.stats, 1)
	in.solverOps = a.attacks
	in.solverSec = a.coreS
	return in
}

func (a *attackInst) close() {}

// sameAttack reports how two attacks differ in target, direction, gain, or
// manipulated ratings ("" when bit-identical).
func sameAttack(x, y *core.Attack) string {
	if x.TargetLine != y.TargetLine || x.Direction != y.Direction {
		return fmt.Sprintf("target %d/%d vs %d/%d", x.TargetLine, x.Direction, y.TargetLine, y.Direction)
	}
	if math.Float64bits(x.GainPct) != math.Float64bits(y.GainPct) {
		return fmt.Sprintf("gain %.12g vs %.12g", x.GainPct, y.GainPct)
	}
	if dlrText(x.DLR) != dlrText(y.DLR) {
		return "manipulated ratings differ"
	}
	return ""
}

// dlrText renders a rating map exactly: sorted line indices with float bits.
func dlrText(m map[int]float64) string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d:%x,", k, math.Float64bits(m[k]))
	}
	return b.String()
}

func attackAnswer(att *core.Attack) string {
	return fmt.Sprintf("attack %d %d %x %s exact=%v", att.TargetLine, att.Direction, math.Float64bits(att.GainPct), dlrText(att.DLR), att.Exact)
}
