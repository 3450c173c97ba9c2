package mat

import (
	"math/rand"
	"testing"
)

// TestMulBlockedIntoZeroAlloc pins the blocked GEMM at zero steady-state
// allocations when the caller owns the destination: the packing-free kernel
// must touch only the three operands.
func TestMulBlockedIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := New(37, 53), New(53, 41)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	for i := 0; i < b.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	dst := New(37, 41)
	allocs := testing.AllocsPerRun(50, func() {
		if err := MulBlockedInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MulBlockedInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestFactorIntoZeroAlloc pins FactorInto and the three solves at zero
// allocations once the caller's LU and destination have room: a cached
// factorization re-used across solves must stay off the allocator.
func TestFactorIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 11
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Add(i, i, n)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	f, err := FactorInto(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := FactorInto(f, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FactorInto allocates %.1f objects per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := f.SolveInto(dst, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveInto allocates %.1f objects per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := f.SolveSparseInto(dst, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveSparseInto allocates %.1f objects per call, want 0", allocs)
	}
	work := make([]float64, n)
	allocs = testing.AllocsPerRun(50, func() {
		copy(work, b)
		if _, err := f.SolveTInto(dst, work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveTInto allocates %.1f objects per call, want 0", allocs)
	}
}
