package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return s
}

func TestPercentileTailRule(t *testing.T) {
	samples := seq(100)
	r, err := percentile(samples, 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if r.Value != 90 || r.N != 100 || r.Beyond != 10 {
		t.Errorf("p90 of 1..100 = %+v, want value 90 with 10 beyond", r)
	}
	if samples[0] != 100 {
		t.Error("percentile reordered its input")
	}
	r, err = percentile(samples, 95)
	if err == nil {
		t.Errorf("p95 of 100 samples has %d beyond it and must be refused", r.Beyond)
	}
	if r.Value != 95 || r.Beyond != 5 {
		t.Errorf("a refused reading still reports what it read: %+v", r)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("the median of no samples must be refused")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		r, err := highestPercentile(seq(c.n))
		if err != nil || r.P != c.want || r.N != c.n || r.Beyond < minBeyond {
			t.Errorf("n=%d: got p%g (%d beyond, err %v), want p%g", c.n, r.P, r.Beyond, err, c.want)
		}
	}
	if _, err := highestPercentile(seq(19)); err == nil {
		t.Error("19 samples support no percentile under the tail rule")
	}
}

// A stalled generator must charge its stall to every request it held
// back: latency runs from the due time, not from the send.
func TestDueTimeLatency(t *testing.T) {
	interval := 2 * time.Millisecond
	stall := 50 * time.Millisecond
	service := time.Millisecond
	var lat, late []float64
	for i := 0; i < 30; i++ {
		due := time.Duration(i) * interval
		sent := max(due, stall) // nothing leaves before the stall ends
		tm := timing{due: due, sent: sent, done: sent + service}
		lat = append(lat, ms(tm.latency()))
		late = append(late, ms(tm.late()))
	}
	if lat[0] != ms(stall+service) || late[0] != ms(stall) {
		t.Errorf("first request: latency %.1f ms late %.1f ms, want %.1f and %.1f",
			lat[0], late[0], ms(stall+service), ms(stall))
	}
	if m := median(lat); m <= ms(service) {
		t.Errorf("median latency %.1f ms hides the stall (service alone is %.1f ms)", m, ms(service))
	}
	if lat[29] != ms(service) {
		t.Errorf("a request due after the stall waited %.1f ms, want %.1f", lat[29], ms(service))
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median(4,1,2,3) = %g", m)
	}
}

// spread must match Python's statistics.quantiles(values, n=4), the
// quartiles repeatability is judged by.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2},
		{[]float64{5, 1}, (6.0 - 0.0) / 3},
	} {
		if got := spread(c.values); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %g, want %g", c.values, got, c.want)
		}
	}
}
