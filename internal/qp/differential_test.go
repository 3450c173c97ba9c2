package qp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/telemetry"
)

// randomConvexQP builds a dispatch-shaped QP (see dispatchQP) sized past
// kktSparseMinDim so the Schur path engages.
func randomConvexQP(r *rand.Rand) (*Problem, []int64) {
	return dispatchQP(r, kktSparseMinDim+r.Intn(16))
}

// smallConvexQP builds a dispatch-shaped QP with 4–12 variables, so its
// KKT systems stay below kktSparseMinDim and take the dense path.
func smallConvexQP(r *rand.Rand) (*Problem, []int64) {
	return dispatchQP(r, 4+r.Intn(9))
}

// dispatchQP builds a strictly convex QP with n variables shaped like
// economic dispatch: diagonal positive-definite Hessian, one dense equality
// (the balance row), finite bounds, and sparse-gradient inequality rows.
func dispatchQP(r *rand.Rand, n int) (*Problem, []int64) {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		_ = p.SetQuadCoeff(j, j, 0.5+2*r.Float64())
		_ = p.SetLinCoeff(j, -3+6*r.Float64())
		lo := -1 + 2*r.Float64()
		_ = p.SetBounds(j, lo, lo+1+3*r.Float64())
	}
	ones := make([]float64, n)
	total := 0.0
	for j := 0; j < n; j++ {
		ones[j] = 1
		lo, hi := p.lower[j], p.upper[j]
		total += lo + (hi-lo)*r.Float64()
	}
	_, _ = p.AddEquality(ones, total)
	var keys []int64
	m := 2 + r.Intn(6)
	for i := 0; i < m; i++ {
		g := make([]float64, n)
		for j := 0; j < n; j++ {
			if r.Float64() < 0.3 {
				g[j] = -1 + 2*r.Float64()
			}
		}
		// Anchor the limit loosely above the box midpoint activity so rows
		// are plausible but not trivially slack.
		act := 0.0
		for j := 0; j < n; j++ {
			act += g[j] * (p.lower[j] + p.upper[j]) / 2
		}
		_, _ = p.AddInequality(g, act+0.2+r.Float64())
		keys = append(keys, int64(i))
	}
	return p, keys
}

// TestDifferentialSchurVsDenseKKT drives the bordered sparse KKT path and
// the dense factorization over randomized dispatch-shaped QPs: both must
// agree on feasibility, objective (1e-7), and the primal point.
func TestDifferentialSchurVsDenseKKT(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	solved := 0
	for trial := 0; trial < 150; trial++ {
		p, _ := randomConvexQP(r)
		dense, derr := SolveWith(p, Options{DenseKKT: true})
		sparse, serr := SolveWith(p, Options{})
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err %v vs sparse err %v", trial, derr, serr)
		}
		if derr != nil {
			continue
		}
		solved++
		if d := math.Abs(dense.Objective - sparse.Objective); d > 1e-7*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: objective gap %g (dense %.12g sparse %.12g)",
				trial, d, dense.Objective, sparse.Objective)
		}
		for j := range dense.X {
			if math.Abs(dense.X[j]-sparse.X[j]) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %.12g dense vs %.12g sparse", trial, j, dense.X[j], sparse.X[j])
			}
		}
	}
	if solved < 50 {
		t.Fatalf("only %d/150 trials solved; generator is degenerate", solved)
	}
	t.Logf("%d QPs differentially verified", solved)
}

// family returns a generator of problems of one fixed structure — n, H,
// bounds, and gradients drawn by gen from an rng seeded with seed — whose
// inequality limits move with shift and whose balance target moves with
// demand: the right-hand-side variation a KKTCache must tolerate.
func family(gen func(*rand.Rand) (*Problem, []int64), seed int64) func(shift, demand float64) (*Problem, []int64) {
	return func(shift, demand float64) (*Problem, []int64) {
		p, keys := gen(rand.New(rand.NewSource(seed)))
		for i := range p.hin {
			p.hin[i] += shift
		}
		p.beq[0] += demand
		return p, keys
	}
}

// TestKKTCacheTransparency is the bit-level regression test for cross-solve
// factorization reuse: solving a sequence of problems that share structure
// but vary right-hand sides through one KKTCache must give results
// bit-identical to solving each with a fresh cache and with no cache at all.
// Cached border columns, Schur dots, Schur factorizations, and dense
// working-set factorizations are all computed once and reused, so any drift
// here means the cache is not the pure memoization it claims.
func TestKKTCacheTransparency(t *testing.T) {
	t.Run("schur", func(t *testing.T) {
		r := rand.New(rand.NewSource(23))
		build := family(randomConvexQP, 99)
		checkTransparent(t, 30, SolveWith, func() (*Problem, []int64) { return build(0.5*r.Float64(), 0) })
	})
	t.Run("dense", func(t *testing.T) {
		// Moving both the limits and the balance target widely walks the
		// active set through more distinct working sets than the table
		// has slots, so eviction and slot-storage reuse run.
		r := rand.New(rand.NewSource(29))
		build := family(smallConvexQP, 7)
		p, _ := build(0, 0)
		if p.n+len(p.aeq) >= kktSparseMinDim {
			t.Fatalf("dense family has KKT dimension %d, want below %d", p.n+len(p.aeq), kktSparseMinDim)
		}
		shared, reg := checkTransparent(t, 80, SolveWith, func() (*Problem, []int64) {
			return build(4*r.Float64()-2, 8*r.Float64()-4)
		})
		factors := reg.Counter("qp_kkt_factorizations_total").Value()
		solves := reg.Counter("qp_kkt_solves_total").Value()
		if factors <= kktDenseSlots || shared.dense.used != kktDenseSlots {
			t.Fatalf("%d factorizations filled %d slots: the sequence never evicted", factors, shared.dense.used)
		}
		if factors >= solves {
			t.Fatalf("%d factorizations for %d KKT solves: the table never hit", factors, solves)
		}
		t.Logf("%d factorizations for %d KKT solves", factors, solves)
	})
	t.Run("dependent", func(t *testing.T) {
		// A unit fixed at lo = hi has both bound rows active everywhere:
		// the primal method's seeding probes their dependent pair on every
		// solve, and the shared cache must replay the stored singularity.
		// (The dual method never forms a dependent working set here.)
		r := rand.New(rand.NewSource(31))
		fam := family(smallConvexQP, 13)
		build := func() (*Problem, []int64) {
			p, keys := fam(0.3*r.Float64(), 0)
			p.lower[0] = p.upper[0]
			return p, keys
		}
		shared, _ := checkTransparent(t, 20, solvePrimal, build)
		bad := 0
		for i := 0; i < shared.dense.used; i++ {
			if shared.dense.slots[i].err != nil {
				bad++
			}
		}
		if bad == 0 {
			t.Fatal("no dependent working set was remembered")
		}
		p, keys := build()
		if _, err := solvePrimal(p, Options{Cache: shared, RowKeys: keys}); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		if _, err := solvePrimal(p, Options{Cache: shared, RowKeys: keys, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		if f := reg.Counter("qp_kkt_factorizations_total").Value(); f != 0 {
			t.Fatalf("replaying a solved problem factored %d KKT systems, want 0", f)
		}
	})
}

// checkTransparent solves trials problems from next three ways with solve —
// through one shared KKTCache, with a fresh cache each, and with no cache —
// and requires bit-identical solutions. It returns the shared cache and the
// registry that counted the shared solves' work.
func checkTransparent(t *testing.T, trials int, solve func(*Problem, Options) (*Solution, error),
	next func() (*Problem, []int64)) (*KKTCache, *telemetry.Registry) {
	t.Helper()
	shared := &KKTCache{}
	reg := telemetry.NewRegistry()
	solved := 0
	for trial := 0; trial < trials; trial++ {
		p, keys := next()
		a, aerr := solve(p, Options{Cache: shared, RowKeys: keys, Metrics: reg})
		b, berr := solve(p, Options{Cache: &KKTCache{}, RowKeys: keys})
		c, cerr := solve(p, Options{RowKeys: keys})
		if (aerr == nil) != (berr == nil) || (aerr == nil) != (cerr == nil) {
			t.Fatalf("trial %d: shared err %v, fresh err %v, uncached err %v", trial, aerr, berr, cerr)
		}
		if aerr != nil {
			continue
		}
		solved++
		if d := solutionDiff(a, b); d != "" {
			t.Fatalf("trial %d: shared vs fresh cache: %s", trial, d)
		}
		if d := solutionDiff(a, c); d != "" {
			t.Fatalf("trial %d: shared vs no cache: %s", trial, d)
		}
	}
	if solved < trials/2 {
		t.Fatalf("only %d/%d trials solved; family is degenerate", solved, trials)
	}
	return shared, reg
}

// solutionDiff describes the first bit-level difference between two
// solutions, or returns "" when they are identical.
func solutionDiff(a, b *Solution) string {
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return "objective differs"
	}
	for _, v := range []struct {
		name string
		x, y []float64
	}{{"X", a.X, b.X}, {"EqDual", a.EqDual, b.EqDual}, {"IneqDual", a.IneqDual, b.IneqDual},
		{"LowerDual", a.LowerDual, b.LowerDual}, {"UpperDual", a.UpperDual, b.UpperDual}} {
		if !slices.EqualFunc(v.x, v.y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }) {
			return v.name + " differs"
		}
	}
	if a.Iterations != b.Iterations {
		return "iterations differ"
	}
	return ""
}

// TestKKTCacheShapeReset checks the cache self-invalidates when the problem
// shape changes (a misuse guard, not a supported workflow).
func TestKKTCacheShapeReset(t *testing.T) {
	shared := &KKTCache{}
	r := rand.New(rand.NewSource(5))
	p1, k1 := randomConvexQP(r)
	if _, err := SolveWith(p1, Options{Cache: shared, RowKeys: k1}); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	var p2 *Problem
	var k2 []int64
	for {
		p2, k2 = randomConvexQP(r)
		if p2.n != p1.n {
			break
		}
	}
	sol2, err := SolveWith(p2, Options{Cache: shared, RowKeys: k2})
	if err != nil {
		t.Fatalf("second solve after shape change: %v", err)
	}
	ref, err := SolveWith(p2, Options{DenseKKT: true})
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if d := math.Abs(sol2.Objective - ref.Objective); d > 1e-7*(1+math.Abs(ref.Objective)) {
		t.Fatalf("objective after cache reset off by %g", d)
	}
}

// TestWorkspaceDropsKKTCache: after a dense solve served from a KKTCache on
// a caller's workspace, the workspace keeps buffers only — no reference to
// the problem or the cache — and the returned solution shares no storage
// with it, so scribbling on one solution cannot change the next.
func TestWorkspaceDropsKKTCache(t *testing.T) {
	p, keys := smallConvexQP(rand.New(rand.NewSource(3)))
	ws := lp.NewWorkspace()
	cache := &KKTCache{}
	opts := Options{Cache: cache, RowKeys: keys, Workspace: ws}
	first, err := SolveWith(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := SolveWith(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := solutionDiff(first, got); d != "" {
			t.Fatalf("re-solve %d on the workspace: %s", i, d)
		}
		for _, v := range [][]float64{got.X, got.EqDual, got.IneqDual, got.LowerDual, got.UpperDual} {
			for j := range v {
				v[j] = math.NaN()
			}
		}
	}
	as := &scratchFrom(ws).as
	if as.p != nil || as.opts.Cache != nil || as.dense != nil || as.schur != nil {
		t.Fatal("workspace still references the finished solve's problem or KKTCache")
	}
	if cache.dense.used == 0 {
		t.Fatal("the dense solve never used the KKTCache")
	}
}

// TestDenseKKTCacheHitZeroAlloc pins a dense KKT solve served from the
// KKTCache's table at zero allocations: the right-hand side, the packed
// key, and the solution all live in reused buffers. A whole steady-state
// dual re-solve on the dense path allocates only the returned Solution.
func TestDenseKKTCacheHitZeroAlloc(t *testing.T) {
	p, keys := smallConvexQP(rand.New(rand.NewSource(3)))
	opts := Options{Cache: &KKTCache{}, RowKeys: keys}.withDefaults()
	sc := scratchFrom(lp.NewWorkspace())
	sc.rows = gatherIneqsInto(p, sc.rows)
	s := sc.attach(p, sc.rows, make([]float64, p.n), opts)
	sets := [][]int{nil, {0}, {0, 1}}
	for _, w := range sets {
		if _, _, _, err := s.solveKKT(w); err != nil {
			t.Fatalf("working set %v: %v", w, err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, w := range sets {
			_, _, _, _ = s.solveKKT(w)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached dense KKT solves allocate %.1f objects per round, want 0", allocs)
	}
	if s.kktFactors != len(sets) {
		t.Fatalf("%d factorizations for %d distinct working sets", s.kktFactors, len(sets))
	}
	if c := checkSteadyStateAllocs(t, p, keys); c.sc != nil || c.dense.used == 0 {
		t.Fatal("the steady-state solves did not take the cached dense path")
	}
}

// TestSchurKKTCacheZeroAlloc is the bordered-path twin: once the KKTCache
// holds the base factorization, border columns, dots, and Schur factors of
// a problem's working sets, a dual re-solve allocates only the returned
// Solution.
func TestSchurKKTCacheZeroAlloc(t *testing.T) {
	p, keys := randomConvexQP(rand.New(rand.NewSource(3)))
	if c := checkSteadyStateAllocs(t, p, keys); c.sc == nil {
		t.Fatal("the steady-state solves did not take the bordered path")
	}
}

// checkSteadyStateAllocs warms a KKTCache and a workspace on p, then
// requires each further solve to allocate exactly the returned Solution:
// the struct and its non-empty X, EqDual, IneqDual, LowerDual, and
// UpperDual slices. It returns the warmed cache.
func checkSteadyStateAllocs(t *testing.T, p *Problem, keys []int64) *KKTCache {
	t.Helper()
	cache := &KKTCache{}
	opts := Options{Cache: cache, RowKeys: keys, Workspace: lp.NewWorkspace()}
	var sol *Solution
	for i := 0; i < 2; i++ {
		var err error
		if sol, err = SolveWith(p, opts); err != nil {
			t.Fatal(err)
		}
	}
	if sol.Iterations < 2 {
		t.Fatalf("solved in %d iterations: no working-set row exercised", sol.Iterations)
	}
	want := 1.0
	for _, v := range [][]float64{sol.X, sol.EqDual, sol.IneqDual, sol.LowerDual, sol.UpperDual} {
		if len(v) > 0 {
			want++
		}
	}
	allocs := testing.AllocsPerRun(20, func() { _, _ = SolveWith(p, opts) })
	if allocs != want {
		t.Fatalf("steady-state dual re-solve allocates %.1f objects, want %.0f (the Solution)", allocs, want)
	}
	return cache
}
