package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a percentile is only reported when at least
// this many samples lie above it, so one outlier cannot set a tail.
const minBeyond = 10

// reading is a percentile together with the sample it was read from.
type reading struct {
	P      float64 // percentile, 0 < P < 100
	Value  float64
	N      int // samples
	Beyond int // samples ranked above the percentile
}

// percentile reads the nearest-rank P-th percentile of samples (samples is
// not modified). The reading is filled whenever samples is non-empty, but an
// error names the shortfall when fewer than minBeyond samples lie beyond it:
// callers reporting a tail must treat that reading as unsupported.
func percentile(samples []float64, p float64) (reading, error) {
	n := len(samples)
	r := reading{P: p, N: n}
	if p <= 0 || p >= 100 {
		return r, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	if n == 0 {
		return r, fmt.Errorf("p%g of an empty sample", p)
	}
	// The epsilon keeps float error (99.9/100·10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r.Value = s[rank-1]
	r.Beyond = n - rank
	if r.Beyond < minBeyond {
		return r, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥%d", p, n, r.Beyond, minBeyond)
	}
	return r, nil
}

// highestPercentile returns the highest of the usual reporting percentiles
// that the sample supports under the tail rule, or the median's error when
// not even the median is supported.
func highestPercentile(samples []float64) (reading, error) {
	best, err := percentile(samples, 50)
	if err != nil {
		return best, err
	}
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		r, err := percentile(samples, p)
		if err != nil {
			break
		}
		best = r
	}
	return best, nil
}

// median is the interpolation-free middle of samples (mean of the two middle
// values for an even count); 0 for an empty slice.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartiles of values
// as a share of their median: the repeatability measure BENCHMARK.json's
// bounds are set against. Quartiles follow the exclusive method (Python's
// statistics.quantiles default); fewer than two values have no spread.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), math.Abs(median(values)))
}

// timing is the due-time accounting of one operation, as offsets from the
// start of its measurement phase. An open-loop generator sets due from the
// schedule; a closed-loop client sets due to the moment it became free,
// which is when its previous operation completed.
type timing struct {
	due, sent, done time.Duration
}

// latency is the operation's time from when it was due to its completion. A
// stalled generator therefore charges its delay to every request it held
// back, which a send-to-completion timer would hide.
func (t timing) latency() time.Duration { return t.done - t.due }

// late is how far behind schedule the generator issued the operation.
func (t timing) late() time.Duration { return t.sent - t.due }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
