package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapObjects is the runtime metric for bytes in heap objects, live or not
// yet swept: the heap the process holds at that instant.
const heapObjects = "/memory/classes/heap/objects:bytes"

// memSampleEvery is the heap sampling period. A GC cycle on these workloads
// lasts tens of milliseconds, so each sawtooth is sampled several times.
const memSampleEvery = 5 * time.Millisecond

// memWatch samples the heap while a phase runs and reads the GC's record at
// the end. Sampling uses runtime/metrics, which does not stop the world.
type memWatch struct {
	start   runtime.MemStats
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MB
}

// memReading is a phase's memory use. heapMeanMB is the heap averaged over
// the phase's samples: what the run holds over time, live data plus the
// garbage the collector lets accumulate. The single highest sample, kept as
// peakMB, hinges on whether a sample caught one GC cycle at its top.
type memReading struct {
	heapMeanMB float64
	peakMB     float64
	mallocs    float64
	gcCycles   float64
	pauseP99MS float64
}

func startMemWatch() *memWatch {
	w := &memWatch{stop: make(chan struct{})}
	runtime.ReadMemStats(&w.start)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			w.samples = append(w.samples, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end stops sampling and returns the phase's memory reading.
func (w *memWatch) end() memReading {
	close(w.stop)
	w.wg.Wait()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	cycles := s.NumGC - w.start.NumGC
	var pauses []float64
	for i := uint32(0); i < min(cycles, uint32(len(s.PauseNs))); i++ {
		pauses = append(pauses, float64(s.PauseNs[(s.NumGC-1-i)%uint32(len(s.PauseNs))])/1e6)
	}
	r := memReading{
		mallocs:  float64(s.Mallocs - w.start.Mallocs),
		gcCycles: float64(cycles),
	}
	for _, v := range w.samples {
		r.heapMeanMB += v / float64(len(w.samples))
		r.peakMB = max(r.peakMB, v)
	}
	pause, _ := percentile(pauses, 99)
	r.pauseP99MS = pause.Value
	return r
}
