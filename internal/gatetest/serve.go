package gatetest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/telemetry"
)

// ServeRecord mirrors one BENCH_serve.json record. The allocation
// fields are the memory half of the baseline: attack_rps is closed-loop
// concurrent attack throughput on the warm topology, allocs_per_solve is
// heap objects per warm workspace-backed evaluate, allocs_per_node is the
// marginal heap cost of one branch-and-bound node, and heap_live_bytes is
// the post-burst live heap.
type ServeRecord struct {
	Case            string  `json:"case"`
	ColdAttackMS    float64 `json:"cold_attack_ms"`
	WarmAttackP50MS float64 `json:"warm_attack_p50_ms"`
	WarmSpeedup     float64 `json:"warm_speedup"`
	WarmHitRate     float64 `json:"warm_hit_rate"`
	AttackRPS       float64 `json:"attack_rps"`
	AllocsPerSolve  float64 `json:"allocs_per_solve"`
	AllocsPerNode   float64 `json:"allocs_per_node"`
	HeapLiveBytes   uint64  `json:"heap_live_bytes"`
}

// LoadServeBaseline reads the BENCH_serve.json records at path, keyed by
// case.
func LoadServeBaseline(path string) (map[string]ServeRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Records []ServeRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]ServeRecord, len(doc.Records))
	for _, r := range doc.Records {
		out[r.Case] = r
	}
	return out, nil
}

// ServeEvent is the NDJSON stream line shape the gate cares about.
type ServeEvent struct {
	Event  string `json:"event"`
	Code   string `json:"code"`
	Error  string `json:"error"`
	Attack *struct {
		TargetLine int                `json:"target_line"`
		Direction  int                `json:"direction"`
		GainPct    float64            `json:"gain_pct"`
		DLR        map[string]float64 `json:"dlr"`
	} `json:"attack"`
	Evaluation *struct {
		Feasible bool    `json:"feasible"`
		GainPct  float64 `json:"gain_pct"`
	} `json:"evaluation"`
	WallMS float64 `json:"wall_ms"`
}

// ServePost posts one job request and decodes its event stream.
func ServePost(tb testing.TB, url, path string, body map[string]any) []ServeEvent {
	tb.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		tb.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	var events []ServeEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev ServeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			tb.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

// ServeResult returns the stream's result event, failing tb on an error
// event or a stream without a result.
func ServeResult(tb testing.TB, events []ServeEvent) ServeEvent {
	tb.Helper()
	for _, ev := range events {
		if ev.Event == "error" {
			tb.Fatalf("job failed: %s (%s)", ev.Error, ev.Code)
		}
		if ev.Event == "result" {
			return ev
		}
	}
	tb.Fatalf("no result in stream: %+v", events)
	return ServeEvent{}
}

// ServeMeasurements is one full daemon measurement pass, shared by the
// gate and the baseline recorder.
type ServeMeasurements struct {
	Cold       time.Duration
	WarmP50    time.Duration
	WarmHit    float64
	AttackRPS  float64
	HeapLive   uint64
	Gain       float64
	DLR        map[int]float64
	TargetLine int
	// ColdPivots and WarmPivots are the LP pivots of the cold request and
	// of the first warm repeat, read off the daemon's registry: the
	// deterministic work the warm topology saves.
	ColdPivots, WarmPivots int64
}

// AttackBody is the budgeted case118 attack request — the same budgets the
// solver baselines use (MaxNodes 40, RelGap 1e-3).
func AttackBody(caseName string) map[string]any {
	return map[string]any{"case": caseName, "max_nodes": 40, "rel_gap": 1e-3}
}

// MeasureServe runs the cold request, warm repeats, and a closed-loop
// concurrent attack burst against one fresh daemon. The attack burst is
// attackConc clients each firing attackPerClient warm attack requests back
// to back — saturation throughput, since same-topology jobs serialize on
// the entry lock while admission and streaming overlap. Evaluate latency
// is the bench's serve-evaluate workload, not measured here.
func MeasureServe(tb testing.TB, caseName string, warmRepeats, attackConc, attackPerClient int) ServeMeasurements {
	tb.Helper()
	reg := telemetry.NewRegistry()
	s := edattack.NewServer(edattack.ServeConfig{Metrics: reg})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var m ServeMeasurements

	pivots := reg.Counter("lp_pivots_total")

	// Cold: first sight of the topology — case parse, dispatch model,
	// PTDF, attacker knowledge, and the attack itself, no warm bases.
	start := time.Now()
	res := ServeResult(tb, ServePost(tb, ts.URL, "/v1/attack", AttackBody(caseName)))
	m.Cold = time.Since(start)
	m.ColdPivots = pivots.Value()
	m.Gain = res.Attack.GainPct
	m.TargetLine = res.Attack.TargetLine
	m.DLR = map[int]float64{}
	for k, v := range res.Attack.DLR {
		li, err := strconv.Atoi(k)
		if err != nil {
			tb.Fatalf("bad DLR key %q", k)
		}
		m.DLR[li] = v
	}

	// Warm repeats: same request, now served from the resident topology
	// bundle with warm-basis-seeded subproblems. Answers must not change.
	warm := make([]time.Duration, warmRepeats)
	for i := range warm {
		before := pivots.Value()
		start = time.Now()
		rep := ServeResult(tb, ServePost(tb, ts.URL, "/v1/attack", AttackBody(caseName)))
		warm[i] = time.Since(start)
		if i == 0 {
			m.WarmPivots = pivots.Value() - before
		}
		if rep.Attack.GainPct != m.Gain || rep.Attack.TargetLine != m.TargetLine {
			tb.Fatalf("warm repeat %d diverged: gain %.17g target %d, want %.17g %d",
				i, rep.Attack.GainPct, rep.Attack.TargetLine, m.Gain, m.TargetLine)
		}
	}
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	m.WarmP50 = warm[len(warm)/2]

	hits := float64(reg.Counter("core_warmcache_hits_total").Value())
	misses := float64(reg.Counter("core_warmcache_misses_total").Value())
	if hits+misses > 0 {
		m.WarmHit = hits / (hits + misses)
	}

	// Concurrent attack burst: closed loop, every answer must still match
	// the cold one — concurrency may reorder jobs, never change results.
	var burstWG sync.WaitGroup
	var diverged atomic.Bool
	total := attackConc * attackPerClient
	burstStart := time.Now()
	for c := 0; c < attackConc; c++ {
		burstWG.Add(1)
		go func() {
			defer burstWG.Done()
			for i := 0; i < attackPerClient; i++ {
				rep := ServeResult(tb, ServePost(tb, ts.URL, "/v1/attack", AttackBody(caseName)))
				if rep.Attack.GainPct != m.Gain || rep.Attack.TargetLine != m.TargetLine {
					diverged.Store(true)
				}
			}
		}()
	}
	burstWG.Wait()
	m.AttackRPS = float64(total) / time.Since(burstStart).Seconds()
	if diverged.Load() {
		tb.Fatalf("concurrent attack burst diverged from the cold answer (gain %.17g target %d)",
			m.Gain, m.TargetLine)
	}

	// Post-burst live heap: what the daemon holds after serving the whole
	// measurement load — the figure the workspace/pool design keeps flat.
	m.HeapLive = telemetry.CaptureMemStats(nil).HeapLiveBytes
	return m
}
