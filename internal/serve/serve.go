// Package serve is the attack-as-a-service layer: a persistent HTTP daemon
// that accepts attack, evaluation, and sweep-screening requests against the
// benchmark grids and streams results as NDJSON. It is the serving shape
// the paper's threat model implies — an EMS re-runs economic dispatch every
// few minutes against the same wires, so the expensive state (parsed case,
// PTDF/LODF precomputation, dispatch model, simplex root bases) is reused
// across requests instead of being rebuilt per invocation.
//
// The pipeline is: HTTP handler → bounded admission queue → worker pool.
// Admission is non-blocking (a full queue answers 429), and every job
// carries a context with a deadline (default or per-request). Each
// resident topology holds the expensive state every job kind reuses: its
// dispatch model, and the sweep Precomp built from that model's PTDF on
// the topology's first sweep. Attack jobs reuse a per-topology
// core.WarmCache, so a repeat attack on the same grid seeds every round-1
// simplex from the prior run's root basis instead of phase I. All reuse is
// certified: results are bit-identical to a one-shot cold run by the
// solver stack's warm-start contract.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/edsec/edattack/internal/telemetry"
)

// lineBufPool recycles the NDJSON line-encoding buffers across requests, so
// a saturated stream of small responses does not allocate a fresh buffer
// (and encoder backing) per request.
var lineBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Config tunes a Server. The zero value serves with the defaults below.
type Config struct {
	// Workers is the number of job-execution goroutines (default
	// GOMAXPROCS). Jobs on distinct topologies run concurrently; attack
	// and evaluation jobs on the same topology serialize on the
	// topology's dispatch model, while sweeps run beside them.
	Workers int
	// QueueDepth caps the jobs admitted but not yet picked up by a
	// worker; a request arriving with that many waiting is answered 429
	// immediately (default 64).
	QueueDepth int
	// DefaultDeadline bounds every job (default 60s); a request's
	// deadline_ms can only shorten it.
	DefaultDeadline time.Duration
	// MaxTopologies caps the resident per-case state bundles — dispatch
	// model, knowledge, warm-basis cache, sweep Precomp — in one LRU,
	// evicting the least-recently-used case (default 8).
	MaxTopologies int
	// AttackWorkers is core.Options.Workers for attack jobs (default 1:
	// budgeted runs are only reproducible sequentially, and the serving
	// contract is bit-identical answers).
	AttackWorkers int
	// Metrics, when non-nil, receives serve_* counters/gauges/histograms
	// and is forwarded to every solver layer. Flight likewise.
	Metrics *telemetry.Registry
	Flight  *telemetry.Flight
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxTopologies <= 0 {
		c.MaxTopologies = 8
	}
	if c.AttackWorkers <= 0 {
		c.AttackWorkers = 1
	}
	return c
}

// Server is the daemon: handlers, queue, workers, topology cache. Create
// with New, expose via Handler, stop with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	admit chan *job
	wg    sync.WaitGroup

	topos *topoCache

	start     time.Time
	closed    chan struct{}
	closeOnce sync.Once

	mu  sync.Mutex
	seq int64
}

// New builds a Server and starts its worker goroutines.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		admit:  make(chan *job, cfg.QueueDepth),
		topos:  newTopoCache(cfg.MaxTopologies, cfg.Metrics),
		start:  time.Now(),
		closed: make(chan struct{}),
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/attack", s.handleJob(kindAttack))
	s.mux.HandleFunc("/v1/evaluate", s.handleJob(kindEvaluate))
	s.mux.HandleFunc("/v1/sweep", s.handleJob(kindSweep))
	telemetry.MountDebug(s.mux, cfg.Metrics, cfg.Flight)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	return s
}

// Handler returns the HTTP surface: the three /v1 job endpoints, /healthz,
// /v1/stats, and the telemetry debug/metrics endpoints, all on one mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops admission (new requests answer 503), fails queued jobs,
// waits for in-flight jobs to finish, and joins every goroutine the Server
// started. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.failQueued()
	s.wg.Wait()
	// Stragglers that raced past the closed check into the admission
	// queue after the first drain: fail them so their handlers unblock.
	s.failQueued()
}

// failQueued fails every job waiting in the admission queue.
func (s *Server) failQueued() {
	for {
		select {
		case j := <-s.admit:
			j.fail("unavailable", "server shutting down")
		default:
			return
		}
	}
}

// nextID mints a process-unique job id.
func (s *Server) nextID() string {
	s.mu.Lock()
	s.seq++
	id := s.seq
	s.mu.Unlock()
	return fmt.Sprintf("j%d", id)
}

func (s *Server) counter(name string) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Inc()
	}
}

func (s *Server) queueGauge() {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Gauge("serve_queue_depth").Set(float64(len(s.admit)))
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// statsDoc is the /v1/stats response. Mem is a fresh runtime.MemStats
// reading (heap live, GC pause p99, GC cycles), also published as mem_*
// gauges on the metrics export.
type statsDoc struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Workers       int                   `json:"workers"`
	QueueDepth    int                   `json:"queue_depth"`
	QueueCap      int                   `json:"queue_cap"`
	Topologies    int                   `json:"topologies"`
	WarmBases     int                   `json:"warm_bases"`
	Mem           telemetry.MemSnapshot `json:"mem"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	doc := statsDoc{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.admit),
		QueueCap:      cap(s.admit),
		Topologies:    s.topos.len(),
		WarmBases:     s.topos.warmBases(),
		Mem:           telemetry.CaptureMemStats(s.cfg.Metrics),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleJob is the shared admission + streaming path for the three job
// endpoints. The handler parses the request, admits the job (or answers
// 429/503), then streams the job's events as NDJSON until the executor
// closes the stream, flushing per line so a slow solve still delivers its
// accepted line immediately.
func (s *Server) handleJob(kind jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		select {
		case <-s.closed:
			s.counter("serve_unavailable_total")
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			return
		default:
		}
		j, status, err := s.newJob(kind, w, r)
		if err != nil {
			s.counter("serve_bad_request_total")
			http.Error(w, err.Error(), status)
			return
		}
		defer j.cancel()
		// LIFO with the cancel above: the job recycles first, then the
		// captured cancel func (which outlives the struct) fires.
		defer putJob(j)
		select {
		case s.admit <- j:
			s.counter("serve_requests_total")
			s.counter("serve_requests_" + string(kind) + "_total")
			s.queueGauge()
		default:
			s.counter("serve_rejected_total")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}

		w.Header().Set("Content-Type", "application/x-ndjson")
		buf := lineBufPool.Get().(*bytes.Buffer)
		defer lineBufPool.Put(buf)
		enc := json.NewEncoder(buf)
		flusher, _ := w.(http.Flusher)
		write := func(ev streamEvent) {
			ev.Job = j.id
			buf.Reset()
			_ = enc.Encode(ev)
			_, _ = w.Write(buf.Bytes())
			if flusher != nil {
				flusher.Flush()
			}
		}
		write(streamEvent{Event: "accepted", Kind: string(kind)})
		for ev := range j.out {
			write(ev)
		}
		wall := time.Since(j.accepted)
		write(streamEvent{Event: "done", WallMS: wall.Seconds() * 1e3})
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Histogram("serve_request_seconds", telemetry.SecondsBuckets).Observe(wall.Seconds())
			s.cfg.Metrics.Histogram("serve_"+string(kind)+"_seconds", telemetry.SecondsBuckets).Observe(wall.Seconds())
		}
	}
}
