package qp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/edsec/edattack/internal/lp"
	"github.com/edsec/edattack/internal/telemetry"
)

// randomConvexQP builds a dispatch-shaped QP (see dispatchQP) with 16–31
// variables.
func randomConvexQP(r *rand.Rand) *Problem {
	return dispatchQP(r, 16+r.Intn(16))
}

// smallConvexQP builds a dispatch-shaped QP with 4–12 variables, the size
// of the case30 and case57 dispatch QPs.
func smallConvexQP(r *rand.Rand) *Problem {
	return dispatchQP(r, 4+r.Intn(9))
}

// dispatchQP builds a strictly convex QP with n variables shaped like
// economic dispatch: diagonal positive-definite Hessian, one dense equality
// (the balance row), finite bounds, and sparse-gradient inequality rows.
func dispatchQP(r *rand.Rand, n int) *Problem {
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
	}
	return p
}

// TestDifferentialSchurVsDenseKKT drives the bordered sparse KKT path and
// the dense factorization over randomized dispatch-shaped QPs, large and
// small: both must agree on feasibility, objective (1e-7), and the primal
// point.
func TestDifferentialSchurVsDenseKKT(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand) *Problem
	}{{"large", randomConvexQP}, {"small", smallConvexQP}} {
		r := rand.New(rand.NewSource(11))
		solved := 0
		for trial := 0; trial < 150; trial++ {
			p := tc.gen(r)
			dense, derr := solveDenseKKT(p, Options{})
			sparse, serr := SolveWith(p, Options{})
			if (derr == nil) != (serr == nil) {
				t.Fatalf("%s trial %d: dense err %v vs sparse err %v", tc.name, trial, derr, serr)
			}
			if derr != nil {
				continue
			}
			solved++
			if d := math.Abs(dense.Objective - sparse.Objective); d > 1e-7*(1+math.Abs(dense.Objective)) {
				t.Fatalf("%s trial %d: objective gap %g (dense %.12g sparse %.12g)",
					tc.name, trial, d, dense.Objective, sparse.Objective)
			}
			for j := range dense.X {
				if math.Abs(dense.X[j]-sparse.X[j]) > 1e-6 {
					t.Fatalf("%s trial %d: x[%d] = %.12g dense vs %.12g sparse", tc.name, trial, j, dense.X[j], sparse.X[j])
				}
			}
		}
		if solved < 50 {
			t.Fatalf("%s: only %d/150 trials solved; generator is degenerate", tc.name, solved)
		}
		t.Logf("%s: %d QPs differentially verified", tc.name, solved)
	}
}

// family returns a generator of problems of one fixed structure — n, H,
// bounds, and gradients drawn by gen from an rng seeded with seed — whose
// inequality row sides move with shift and whose balance target moves with
// demand: the right-hand-side variation a KKTCache must tolerate.
func family(gen func(*rand.Rand) *Problem, seed int64) func(shift, demand float64) *Problem {
	return func(shift, demand float64) *Problem {
		p := gen(rand.New(rand.NewSource(seed)))
		for i := range p.hin {
			p.hin[i] += shift
			p.lin[i] += shift
		}
		p.beq[0] += demand
		return p
	}
}

// TestKKTCacheTransparency is the bit-level regression test for cross-solve
// factorization reuse: solving a sequence of problems that share structure
// but vary right-hand sides through one KKTCache must give results
// bit-identical to solving each with a fresh cache and with no cache at all.
// Cached border columns, Schur dots, and Schur factorizations are all
// computed once and reused, so any drift here means the cache is not the
// pure memoization it claims.
func TestKKTCacheTransparency(t *testing.T) {
	t.Run("schur", func(t *testing.T) {
		r := rand.New(rand.NewSource(23))
		build := family(randomConvexQP, 99)
		checkTransparent(t, 30, SolveWith, func() *Problem { return build(0.5*r.Float64(), 0) })
	})
	t.Run("dependent", func(t *testing.T) {
		// A unit fixed at lo = hi has both bound rows active everywhere:
		// the primal method's seeding probes their dependent pair on every
		// solve, and the shared cache must replay the stored singularity.
		// (The dual method never forms a dependent working set here.)
		r := rand.New(rand.NewSource(31))
		fam := family(smallConvexQP, 13)
		build := func() *Problem {
			p := fam(0.3*r.Float64(), 0)
			p.lower[0] = p.upper[0]
			return p
		}
		shared := checkTransparent(t, 20, solvePrimal, build)
		if shared.sc == nil {
			t.Fatal("the solves did not take the bordered path")
		}
		if len(shared.sc.sbad) == 0 {
			t.Fatal("no dependent working set was remembered")
		}
		p := build()
		if _, err := solvePrimal(p, Options{Cache: shared}); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		if _, err := solvePrimal(p, Options{Cache: shared, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		if f := reg.Counter("qp_kkt_factorizations_total").Value(); f != 0 {
			t.Fatalf("replaying a solved problem factored %d KKT systems, want 0", f)
		}
	})
}

// checkTransparent solves trials problems from next three ways with solve —
// through one shared KKTCache, with a fresh cache each, and with no cache —
// and requires bit-identical solutions. It returns the shared cache.
func checkTransparent(t *testing.T, trials int, solve func(*Problem, Options) (*Solution, error),
	next func() *Problem) *KKTCache {
	t.Helper()
	shared := &KKTCache{}
	solved := 0
	for trial := 0; trial < trials; trial++ {
		p := next()
		a, aerr := solve(p, Options{Cache: shared})
		b, berr := solve(p, Options{Cache: &KKTCache{}})
		c, cerr := solve(p, Options{})
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
	return shared
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
	p1 := randomConvexQP(r)
	if _, err := SolveWith(p1, Options{Cache: shared}); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	var p2 *Problem
	for {
		p2 = randomConvexQP(r)
		if p2.n != p1.n {
			break
		}
	}
	sol2, err := SolveWith(p2, Options{Cache: shared})
	if err != nil {
		t.Fatalf("second solve after shape change: %v", err)
	}
	ref, err := solveDenseKKT(p2, Options{})
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if d := math.Abs(sol2.Objective - ref.Objective); d > 1e-7*(1+math.Abs(ref.Objective)) {
		t.Fatalf("objective after cache reset off by %g", d)
	}
}

// TestWorkspaceDropsKKTCache: after a solve served from a KKTCache on a
// caller's workspace, the workspace keeps buffers only — no reference to
// the problem or the cache — and the returned solution shares no storage
// with it, so scribbling on one solution cannot change the next.
func TestWorkspaceDropsKKTCache(t *testing.T) {
	p := smallConvexQP(rand.New(rand.NewSource(3)))
	ws := lp.NewWorkspace()
	cache := &KKTCache{}
	opts := Options{Cache: cache, Workspace: ws}
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
	if as.p != nil || as.opts.Cache != nil || as.schur != nil {
		t.Fatal("workspace still references the finished solve's problem or KKTCache")
	}
	if cache.sc == nil {
		t.Fatal("the solve never used the KKTCache")
	}
}

// TestSchurKKTCacheZeroAlloc pins the bordered path's steady state: once
// the KKTCache holds the base factorization, border columns, dots, and
// Schur factors of a problem's working sets, a dual re-solve allocates only
// the returned Solution, for large problems and for small ones the size of
// the case30 and case57 dispatch QPs.
func TestSchurKKTCacheZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand) *Problem
	}{{"large", randomConvexQP}, {"small", smallConvexQP}} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.gen(rand.New(rand.NewSource(3)))
			if c := checkSteadyStateAllocs(t, p); c.sc == nil {
				t.Fatal("the steady-state solves did not take the bordered path")
			}
		})
	}
}

// checkSteadyStateAllocs warms a KKTCache and a workspace on p, then
// requires each further solve to allocate exactly the returned Solution:
// 2 objects, the struct and the one array behind its X, EqDual, IneqDual,
// LowerDual, and UpperDual. It checks a cold re-solve and a re-solve
// hot-started from a carried WorkingSet, which starts at the final working
// set and so finishes in one iteration with the cold solution. It returns
// the warmed cache.
func checkSteadyStateAllocs(t *testing.T, p *Problem) *KKTCache {
	t.Helper()
	cache := &KKTCache{}
	opts := Options{Cache: cache, Workspace: lp.NewWorkspace()}
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
	const want = 2.0
	allocs := testing.AllocsPerRun(20, func() { _, _ = SolveWith(p, opts) })
	if allocs != want {
		t.Fatalf("steady-state dual re-solve allocates %.1f objects, want %.0f (the Solution)", allocs, want)
	}
	hot := opts
	hot.Start = &WorkingSet{}
	for i := 0; i < 2; i++ {
		got, err := SolveWith(p, hot)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && got.Iterations != 1 {
			t.Fatalf("hot re-solve took %d iterations, want 1", got.Iterations)
		}
		got.Iterations = sol.Iterations
		if d := solutionDiff(sol, got); d != "" {
			t.Fatalf("hot solve %d vs cold: %s", i, d)
		}
	}
	allocs = testing.AllocsPerRun(20, func() { _, _ = SolveWith(p, hot) })
	if allocs != want {
		t.Fatalf("steady-state hot re-solve allocates %.1f objects, want %.0f (the Solution)", allocs, want)
	}
	return cache
}
