package main

import (
	"math"
	"math/rand"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machine-speed reference. On a shared VM the speed of general code
// drifts, within seconds and by up to 1.6× over minutes, while nothing in
// the guest accounts for it (no steal time): a cold case57 attack took
// 110 ms in one ten-minute window and 195 ms in the next. A fixed
// computation of the benchmark's own slows in step when it is timed
// throughout the run, in the pauses a workload makes about once a second
// while the program is idle; timed only before and after the run it does
// not track, and a SHA-256 loop does not track at all. Time metrics are
// therefore reported at reference speed: scaled by the reference's speed
// against a calm 2-vCPU Xeon VM. Raw values are kept beside them.
//
// The reference is three kernels, each timed on its own: a sort of 20,000
// floats (branchy, cache-resident), a copy of 3.2 MB followed by a sort of
// a quarter of it (memory traffic past the core's cache), and an LU
// factorization of a dense 120×120 matrix (floating point, like the
// solvers). The speed is the geometric mean of their speeds. Slow spells do
// not slow all code alike: in one, the median cold attack of attack-dive
// spread 18% over ten runs raw, 6.5% against the sort alone and 2.9%
// against the three kernels; on calmer runs of every workload the three
// kernels left spreads of 3.2–6.5% and the sort alone 3.3–7%.
//
// Each operation is scaled by the speed around its completion, from the
// timings within refLocal of it, not by the run's median: the speed also
// drifts by tens of percent within one run. Over ten seeded runs of
// serve-evaluate, the median latency spread 9.3% scaled by the run's speed
// and 2.8% scaled locally; attack-exact's 5.7% and 3.2%.
const (
	refEvery = time.Second             // how often a workload pauses for the reference
	refLocal = 1500 * time.Millisecond // how far from an operation its speed is read
)

// refKernel is one computation of the reference: how many times a pause
// times it, and its time in milliseconds on a calm 2-vCPU Xeon VM.
type refKernel struct {
	name      string
	reps      int
	nominalMS float64
	run       func()
}

var refKernels = []refKernel{
	{"sort", 3, 1.7, func() { sortRef(refSmall) }},
	{"stream-sort", 1, 10.3, func() { sortRef(refLarge) }},
	{"lu", 3, 0.35, luRef},
}

// sortBuf is a sort kernel's input and the buffer it is copied into and
// sorted. n elements of the copy are sorted.
type sortBuf struct {
	src, buf []float64
	n        int
}

// The kernels' buffers are mapped outside the Go heap, so they count
// neither in heap_mean_mb nor in the collector's pacing of the program.
var (
	refSmall = sortBuf{offHeapRandom(20000, 1), offHeap(20000), 20000}
	refLarge = sortBuf{offHeapRandom(400000, 2), offHeap(400000), 100000}
	luSrc    = luMatrix()
	luBuf    = offHeap(luN * luN)
)

const luN = 120 // order of the LU kernel's matrix

func sortRef(b sortBuf) {
	copy(b.buf, b.src)
	sort.Float64s(b.buf[:b.n])
}

// luMatrix is a random diagonally dominant luN×luN matrix, row-major.
func luMatrix() []float64 {
	a := offHeapRandom(luN*luN, 4)
	for i := 0; i < luN; i++ {
		a[i*luN+i] += luN
	}
	return a
}

// luRef factors a copy of luSrc in place, without pivoting.
func luRef() {
	copy(luBuf, luSrc)
	a, n := luBuf, luN
	for k := 0; k < n; k++ {
		rk := a[k*n : k*n+n]
		for i := k + 1; i < n; i++ {
			ri := a[i*n : i*n+n]
			f := ri[k] / rk[k]
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
}

func offHeap(n int) []float64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

func offHeapRandom(n int, seed int64) []float64 {
	v := offHeap(n)
	rng := rand.New(rand.NewSource(seed))
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// refClock collects reference timings during a measurement, per kernel.
type refClock struct {
	samples [][]float64   // milliseconds
	at      [][]time.Time // when each timing started
	last    time.Time
}

func newRefClock() *refClock {
	return &refClock{samples: make([][]float64, len(refKernels)), at: make([][]time.Time, len(refKernels))}
}

// tick times every kernel. Callers tick only while the program under test
// is idle, so the reference sees the machine alone.
func (r *refClock) tick() {
	for k, kern := range refKernels {
		for i := 0; i < kern.reps; i++ {
			start := time.Now()
			kern.run()
			r.samples[k] = append(r.samples[k], ms(time.Since(start)))
			r.at[k] = append(r.at[k], start)
		}
	}
	r.last = time.Now()
}

// due reports whether refEvery has passed since the last tick.
func (r *refClock) due() bool { return time.Since(r.last) >= refEvery }

// speed is the machine's speed against nominal over the whole measurement:
// below 1 when the reference ran slower than on a calm machine.
func (r *refClock) speed() float64 {
	return r.geoMean(func(k int) []float64 { return r.samples[k] })
}

// speedAt is the machine's speed around t: from each kernel's timings
// within refLocal of it, or from all of them when none is.
func (r *refClock) speedAt(t time.Time) float64 {
	return r.geoMean(func(k int) []float64 {
		var near []float64
		for i, at := range r.at[k] {
			if d := at.Sub(t); d >= -refLocal && d <= refLocal {
				near = append(near, r.samples[k][i])
			}
		}
		if len(near) == 0 {
			return r.samples[k]
		}
		return near
	})
}

// geoMean is the geometric mean over the kernels of nominal time over the
// median of the timings pick returns for each.
func (r *refClock) geoMean(pick func(k int) []float64) float64 {
	var logSum float64
	for k, kern := range refKernels {
		logSum += math.Log(kern.nominalMS / median(pick(k)))
	}
	return math.Exp(logSum / float64(len(refKernels)))
}
