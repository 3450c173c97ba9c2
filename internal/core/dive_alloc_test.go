package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/gatetest"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// coldDiveAttacks is the number of distinct true-rating draws the cold-dive
// benchmark and budget cycle through.
const coldDiveAttacks = 8

// servingOptions is the budgeted configuration the serving layer runs
// attacks with.
var servingOptions = core.Options{MaxNodes: 40, RelGap: 1e-3, Workers: 1}

// coldDive holds the fixed inputs of cold budgeted case57 attacks: one
// model, whose clones start with empty dispatch state, and the true
// ratings of each attack, every DLR line's static rating scaled by a
// seeded U[0.95, 1.05] and clamped into its band. Budgeted answers come
// from the dive and its polish, so these attacks spend most of their time
// in dispatch solves.
type coldDive struct {
	model *dispatch.Model
	trues []map[int]float64
}

func newColdDive(tb testing.TB) *coldDive {
	tb.Helper()
	net, err := cases.Case57()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := dispatch.BuildModel(net)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	d := &coldDive{model: m}
	for i := 0; i < coldDiveAttacks; i++ {
		ud := map[int]float64{}
		for _, li := range net.DLRLines() {
			l := &net.Lines[li]
			ud[li] = min(max(l.RateMVA*(0.95+0.1*r.Float64()), l.DLRMin), l.DLRMax)
		}
		d.trues = append(d.trues, ud)
	}
	return d
}

// attack runs attack i (mod coldDiveAttacks) cold: a fresh model clone —
// no QP, KKT factors, or warm-start memory yet — with a fresh Knowledge,
// whose dispatch memo is empty, and no WarmCache.
func (d *coldDive) attack(tb testing.TB, i int, reg *telemetry.Registry) *core.Attack {
	m := d.model.ShallowClone()
	m.Metrics = reg
	k, err := core.NewKnowledge(m, d.trues[i%coldDiveAttacks])
	if err != nil {
		tb.Fatal(err)
	}
	o := servingOptions
	o.Metrics = reg
	att, err := core.FindOptimalAttack(k, o)
	if err != nil {
		tb.Fatal(err)
	}
	return att
}

// BenchmarkColdDiveCase57 times cold budgeted case57 attacks at the
// serving options and reports the work behind each: QP solves, QP
// iterations, KKT factorizations, and dispatch solves per attack. With
// -benchmem it pins the dive's allocations; the work counts are exact for
// a given iteration count.
func BenchmarkColdDiveCase57(b *testing.B) {
	d := newColdDive(b)
	reg := telemetry.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.attack(b, i, reg)
	}
	b.StopTimer()
	per := func(name string) float64 { return float64(reg.Counter(name).Value()) / float64(b.N) }
	b.ReportMetric(per("qp_solves_total"), "qp-solves/op")
	b.ReportMetric(per("qp_iterations_total"), "qp-iters/op")
	b.ReportMetric(per("qp_kkt_factorizations_total"), "kkt-factors/op")
	b.ReportMetric(per("dispatch_solves_total"), "dispatch-solves/op")
}

// Dive allocation ceilings per cold budgeted case57 attack
// (TestDiveAllocBudget). Measured 6,010–6,034 objects and 0.83–0.84 MB
// over the fixed attacks (Go 1.24.0, linux/amd64, the toolchain CI pins);
// the ceilings leave about 10% of headroom.
const (
	diveAllocsCeiling = 6650
	diveBytesCeiling  = 0.93e6
)

// TestDiveAllocBudget caps the heap objects and bytes one cold budgeted
// case57 attack allocates, over the fixed attacks BenchmarkColdDiveCase57
// runs. The attacks run with GOMAXPROCS 1 after a GC, so the process-wide
// counters see little besides the attacks themselves.
func TestDiveAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fixed cold case57 attack")
	}
	if gatetest.RaceEnabled {
		t.Skip("the race detector's instrumentation moves allocations to the heap")
	}
	d := newColdDive(t)
	d.attack(t, 0, nil) // first-use set-up outside the attacks: pools, lazy tables
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < coldDiveAttacks; i++ {
		d.attack(t, i, nil)
	}
	runtime.ReadMemStats(&after)
	objs := float64(after.Mallocs-before.Mallocs) / coldDiveAttacks
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / coldDiveAttacks
	t.Logf("cold case57 dive: %.0f objects, %.2f MB per attack", objs, bytes/1e6)
	if objs > diveAllocsCeiling {
		t.Errorf("a cold case57 attack allocates %.0f objects, want ≤ %d", objs, diveAllocsCeiling)
	}
	if bytes > diveBytesCeiling {
		t.Errorf("a cold case57 attack allocates %.2f MB, want ≤ %.2f", bytes/1e6, diveBytesCeiling/1e6)
	}
}
