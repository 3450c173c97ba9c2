package qp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzKKTPaths drives the three KKT paths over a sequence of right-hand-side
// perturbations of one dispatch-shaped QP family (see dispatchQP), sized
// below or above kktSparseMinDim by the fuzzed size:
//   - the dense path without a cache is the oracle;
//   - the dense path through one shared KKTCache must equal it bit for bit;
//   - the default path through its own shared KKTCache (bordered Schur when
//     the base is large enough) must match its objective within 1e-7
//     relative.
//
// The seed corpus lives in testdata/fuzz/FuzzKKTPaths; explore further with
// go test -run '^$' -fuzz FuzzKKTPaths -fuzztime 20s ./internal/qp.
func FuzzKKTPaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, steps uint8) {
		n := 2 + int(size)%30 // KKT base dimension n+1 spans both sides of kktSparseMinDim
		build := family(func(r *rand.Rand) (*Problem, []int64) { return dispatchQP(r, n) }, seed)
		r := rand.New(rand.NewSource(^seed))
		dense, schur := &KKTCache{}, &KKTCache{}
		for step := 0; step <= int(steps)%12; step++ {
			p, keys := build(r.Float64()-0.5, 2*r.Float64()-1)
			want, werr := SolveWith(p, Options{DenseKKT: true})
			got, gerr := SolveWith(p, Options{DenseKKT: true, Cache: dense, RowKeys: keys})
			alt, aerr := SolveWith(p, Options{Cache: schur, RowKeys: keys})
			if (werr == nil) != (gerr == nil) || (werr == nil) != (aerr == nil) {
				t.Fatalf("step %d (n=%d): oracle err %v, cached dense err %v, default err %v", step, n, werr, gerr, aerr)
			}
			if werr != nil {
				continue
			}
			if d := solutionDiff(want, got); d != "" {
				t.Fatalf("step %d (n=%d): cached dense vs oracle: %s", step, n, d)
			}
			if d := math.Abs(want.Objective - alt.Objective); d > 1e-7*(1+math.Abs(want.Objective)) {
				t.Fatalf("step %d (n=%d): default path objective %.12g, oracle %.12g", step, n, alt.Objective, want.Objective)
			}
		}
	})
}
