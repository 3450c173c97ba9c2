package edattack_test

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// speedRef is a machine-speed reference timed beside a measured run, as the
// benchmark in bench/ times its own: a sort of 20,000 floats and an LU
// factorization of a dense 120×120 matrix, whose times on a calm 2-vCPU
// Xeon VM are speedRefSortMS and speedRefLUMS. A shared VM drifts in speed
// by tens of percent within seconds, and a computation timed right beside
// the run drifts with it, so wall gates compare walls at reference speed.
type speedRef struct {
	src, buf []float64 // sort input and its working copy
	lu, a    []float64 // LU input and its working copy
}

const (
	speedRefN      = 120  // order of the LU kernel's matrix
	speedRefSortMS = 1.7  // nominal sort time
	speedRefLUMS   = 0.35 // nominal LU time
)

// newSpeedRef builds the kernels' inputs and runs each once to warm their
// caches and pages.
func newSpeedRef() *speedRef {
	rng := rand.New(rand.NewSource(1))
	r := &speedRef{
		src: make([]float64, 20000), buf: make([]float64, 20000),
		lu: make([]float64, speedRefN*speedRefN), a: make([]float64, speedRefN*speedRefN),
	}
	for i := range r.src {
		r.src[i] = rng.Float64()
	}
	for i := range r.lu {
		r.lu[i] = rng.Float64()
	}
	for i := 0; i < speedRefN; i++ {
		r.lu[i*speedRefN+i] += speedRefN // diagonally dominant: no pivoting
	}
	r.times()
	return r
}

// times runs each kernel once and returns their times in milliseconds.
func (r *speedRef) times() (sortMS, luMS float64) {
	start := time.Now()
	copy(r.buf, r.src)
	sort.Float64s(r.buf)
	sortMS = float64(time.Since(start).Nanoseconds()) / 1e6
	start = time.Now()
	copy(r.a, r.lu)
	n := speedRefN
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			f := r.a[i*n+k] / r.a[k*n+k]
			for j := k + 1; j < n; j++ {
				r.a[i*n+j] -= f * r.a[k*n+j]
			}
		}
	}
	luMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return sortMS, luMS
}

// around runs fn between two timings of the kernels and returns the
// machine's speed around it: the geometric mean of nominal over measured
// kernel times, below 1 in a slow spell. A wall times the speed is the wall
// at reference speed; a rate divided by it is the rate at reference speed.
func (r *speedRef) around(fn func()) float64 {
	s0, l0 := r.times()
	fn()
	s1, l1 := r.times()
	return math.Sqrt(speedRefSortMS / ((s0 + s1) / 2) * speedRefLUMS / ((l0 + l1) / 2))
}
