package edattack_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/telemetry"
)

// serveBaselineRecord mirrors one BENCH_serve.json record. The allocation
// fields are the memory half of the baseline: attack_rps is closed-loop
// concurrent attack throughput on the warm topology, allocs_per_solve is
// heap objects per warm workspace-backed evaluate, allocs_per_node is the
// marginal heap cost of one branch-and-bound node, and heap_live_bytes is
// the post-burst live heap.
type serveBaselineRecord struct {
	Case            string  `json:"case"`
	ColdAttackMS    float64 `json:"cold_attack_ms"`
	WarmAttackP50MS float64 `json:"warm_attack_p50_ms"`
	WarmSpeedup     float64 `json:"warm_speedup"`
	WarmHitRate     float64 `json:"warm_hit_rate"`
	EvaluateP50MS   float64 `json:"evaluate_p50_ms"`
	EvaluateP99MS   float64 `json:"evaluate_p99_ms"`
	EvaluateRPS     float64 `json:"evaluate_rps"`
	AttackRPS       float64 `json:"attack_rps"`
	AllocsPerSolve  float64 `json:"allocs_per_solve"`
	AllocsPerNode   float64 `json:"allocs_per_node"`
	HeapLiveBytes   uint64  `json:"heap_live_bytes"`
}

func loadServeBaseline() (map[string]serveBaselineRecord, error) {
	raw, err := os.ReadFile("BENCH_serve.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Records []serveBaselineRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]serveBaselineRecord, len(doc.Records))
	for _, r := range doc.Records {
		out[r.Case] = r
	}
	return out, nil
}

// serveEvent is the NDJSON stream line shape the gate cares about.
type serveEvent struct {
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

// servePost posts one job request and decodes its event stream.
func servePost(tb testing.TB, url, path string, body map[string]any) []serveEvent {
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
	var events []serveEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev serveEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			tb.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

func serveResult(tb testing.TB, events []serveEvent) serveEvent {
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
	return serveEvent{}
}

// serveBenchMeasurements is one full daemon measurement pass, shared by the
// gate and the baseline recorder.
type serveBenchMeasurements struct {
	cold       time.Duration
	warmP50    time.Duration
	warmHit    float64
	evalP50    time.Duration
	evalP99    time.Duration
	evalRPS    float64
	attackRPS  float64
	heapLive   uint64
	gain       float64
	dlr        map[int]float64
	targetLine int
}

// attackBody is the budgeted case118 attack request — the same budgets the
// solver baselines use (MaxNodes 40, RelGap 1e-3).
func attackBody(caseName string) map[string]any {
	return map[string]any{"case": caseName, "max_nodes": 40, "rel_gap": 1e-3}
}

// measureServe runs the cold request, warm repeats, a closed-loop
// concurrent attack burst, and an evaluate burst against one fresh daemon.
// The attack burst is attackConc clients each firing attackPerClient warm
// attack requests back to back — saturation throughput, since same-topology
// jobs serialize on the entry lock while admission and streaming overlap.
func measureServe(tb testing.TB, caseName string, warmRepeats, evalBurst, attackConc, attackPerClient int) serveBenchMeasurements {
	tb.Helper()
	reg := telemetry.NewRegistry()
	s := edattack.NewServer(edattack.ServeConfig{Metrics: reg})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var m serveBenchMeasurements

	// Cold: first sight of the topology — case parse, dispatch model,
	// PTDF, attacker knowledge, and the attack itself, no warm bases.
	start := time.Now()
	res := serveResult(tb, servePost(tb, ts.URL, "/v1/attack", attackBody(caseName)))
	m.cold = time.Since(start)
	m.gain = res.Attack.GainPct
	m.targetLine = res.Attack.TargetLine
	m.dlr = map[int]float64{}
	for k, v := range res.Attack.DLR {
		li, err := strconv.Atoi(k)
		if err != nil {
			tb.Fatalf("bad DLR key %q", k)
		}
		m.dlr[li] = v
	}

	// Warm repeats: same request, now served from the resident topology
	// bundle with warm-basis-seeded subproblems. Answers must not change.
	warm := make([]time.Duration, warmRepeats)
	for i := range warm {
		start = time.Now()
		rep := serveResult(tb, servePost(tb, ts.URL, "/v1/attack", attackBody(caseName)))
		warm[i] = time.Since(start)
		if rep.Attack.GainPct != m.gain || rep.Attack.TargetLine != m.targetLine {
			tb.Fatalf("warm repeat %d diverged: gain %.17g target %d, want %.17g %d",
				i, rep.Attack.GainPct, rep.Attack.TargetLine, m.gain, m.targetLine)
		}
	}
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	m.warmP50 = warm[len(warm)/2]

	hits := float64(reg.Counter("core_warmcache_hits_total").Value())
	misses := float64(reg.Counter("core_warmcache_misses_total").Value())
	if hits+misses > 0 {
		m.warmHit = hits / (hits + misses)
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
				rep := serveResult(tb, servePost(tb, ts.URL, "/v1/attack", attackBody(caseName)))
				if rep.Attack.GainPct != m.gain || rep.Attack.TargetLine != m.targetLine {
					diverged.Store(true)
				}
			}
		}()
	}
	burstWG.Wait()
	m.attackRPS = float64(total) / time.Since(burstStart).Seconds()
	if diverged.Load() {
		tb.Fatalf("concurrent attack burst diverged from the cold answer (gain %.17g target %d)",
			m.gain, m.targetLine)
	}

	// Evaluate burst: sequential requests against the warm topology — the
	// daemon's high-rate request class.
	net, err := edattack.LoadCase(caseName)
	if err != nil {
		tb.Fatal(err)
	}
	dlr := map[string]float64{}
	for _, li := range net.DLRLines() {
		dlr[strconv.Itoa(li)] = net.Lines[li].RateMVA * 1.05
	}
	evalReq := map[string]any{"case": caseName, "dlr": dlr}
	lats := make([]time.Duration, evalBurst)
	burstStart = time.Now()
	for i := range lats {
		start = time.Now()
		serveResult(tb, servePost(tb, ts.URL, "/v1/evaluate", evalReq))
		lats[i] = time.Since(start)
	}
	burstWall := time.Since(burstStart)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	m.evalP50 = lats[len(lats)/2]
	m.evalP99 = lats[(len(lats)-1)*99/100]
	m.evalRPS = float64(evalBurst) / burstWall.Seconds()
	// Post-burst live heap: what the daemon holds after serving the whole
	// measurement load — the figure the workspace/pool design keeps flat.
	m.heapLive = telemetry.CaptureMemStats(nil).HeapLiveBytes
	return m
}

// TestServeGate is the attack-as-a-service regression gate on case118. It
// fails when:
//
//   - BENCH_serve.json is missing (run make bench-serve-baseline);
//   - the recorded warm-over-cold speedup is below the 2× acceptance
//     floor;
//   - the served attack is not bit-identical to a one-shot library run
//     with the same budgets (the CLI path);
//   - warm repeats diverge from the cold answer, or the live warm p50
//     fails a noise-tolerant half of the 2× floor;
//   - a deadline-cancelled request overshoots its deadline by more than
//     100ms, or the daemon leaks goroutines after Close.
func TestServeGate(t *testing.T) {
	if testing.Short() {
		t.Skip("case118 serve gate skipped in -short mode")
	}
	base, err := loadServeBaseline()
	if err != nil {
		t.Fatalf("BENCH_serve.json: %v — record it with make bench-serve-baseline", err)
	}
	rec, ok := base["case118"]
	if !ok {
		t.Fatal("BENCH_serve.json has no case118 record")
	}
	if rec.WarmSpeedup < 2 {
		t.Errorf("recorded warm speedup %.2f× is below the 2× acceptance floor — rerun make bench-serve-baseline",
			rec.WarmSpeedup)
	}

	before := runtime.NumGoroutine()
	m := measureServe(t, "case118", 3, 32, 2, 2)

	// Bit-identical to the one-shot library path with the same budgets —
	// what the edattack CLI runs.
	k := knowledgeCase(t, "case118")
	want, err := edattack.FindOptimalAttack(k, edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.gain != want.GainPct || m.targetLine != want.TargetLine {
		t.Errorf("served attack gain %.17g target %d, one-shot run %.17g %d",
			m.gain, m.targetLine, want.GainPct, want.TargetLine)
	}
	if len(m.dlr) != len(want.DLR) {
		t.Errorf("served DLR has %d lines, one-shot %d", len(m.dlr), len(want.DLR))
	} else {
		for li, v := range want.DLR {
			if m.dlr[li] != v {
				t.Errorf("served DLR[%d] = %.17g, one-shot %.17g", li, m.dlr[li], v)
			}
		}
	}

	speedup := m.cold.Seconds() / m.warmP50.Seconds()
	if !raceDetectorEnabled && speedup < 1 {
		// The recorded ≥2× floor holds above; live, assert a noise-tolerant
		// backstop (matching the other gates' convention for wall numbers).
		t.Errorf("warm repeat p50 %.0fms is no faster than the cold request %.0fms",
			float64(m.warmP50.Milliseconds()), float64(m.cold.Milliseconds()))
	}
	if m.warmHit == 0 {
		t.Error("warm repeats hit no cached bases")
	}
	if m.attackRPS <= 0 {
		t.Error("concurrent attack burst measured no throughput")
	}
	t.Logf("case118: cold %.0fms, warm p50 %.0fms (%.1f×), warm hit rate %.2f, evaluate p50 %.2fms p99 %.2fms (%.0f rps), attack %.2f rps concurrent, %.1f MiB live heap",
		float64(m.cold.Milliseconds()), float64(m.warmP50.Milliseconds()), speedup,
		m.warmHit, float64(m.evalP50.Microseconds())/1000, float64(m.evalP99.Microseconds())/1000, m.evalRPS,
		m.attackRPS, float64(m.heapLive)/(1<<20))

	testServeDeadline(t)
	testServeGoroutines(t, before)
}

// testServeDeadline asserts a deadline-cancelled attack answers within
// 100ms of its deadline: the context threads down to branch-and-bound node
// and row-generation round granularity, so no solver layer can overshoot
// by more than one node's work.
func testServeDeadline(t *testing.T) {
	s := edattack.NewServer(edattack.ServeConfig{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the topology so the deadline budget is spent inside the solver,
	// not the case parser.
	serveResult(t, servePost(t, ts.URL, "/v1/sweep", map[string]any{
		"case": "case118", "draws": 1,
	}))

	const deadline = 400 * time.Millisecond
	body := attackBody("case118")
	body["deadline_ms"] = deadline.Milliseconds()
	start := time.Now()
	events := servePost(t, ts.URL, "/v1/attack", body)
	wall := time.Since(start)
	var failed bool
	for _, ev := range events {
		if ev.Event == "error" {
			failed = true
			if ev.Code != "deadline_exceeded" {
				t.Errorf("deadline job failed with %q (%s), want deadline_exceeded", ev.Code, ev.Error)
			}
		}
	}
	if !failed {
		t.Fatalf("case118 attack finished inside %s — deadline never fired; events %+v", deadline, events)
	}
	if overshoot := wall - deadline; !raceDetectorEnabled && overshoot > 100*time.Millisecond {
		t.Errorf("deadline-cancelled request took %s, overshooting the %s deadline by %s (want ≤100ms)",
			wall, deadline, overshoot)
	}
}

// testServeGoroutines asserts Close reclaims the worker pool: the goroutine
// count returns to its pre-daemon level (small slack for runtime and
// httptest background goroutines winding down).
func testServeGoroutines(t *testing.T, before int) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines not reclaimed after Close: %d now vs %d before the daemon", now, before)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeEvaluateMissingDLRBoundsGate pins the serving layer's bound
// check: a manipulation outside the plausibility band must be rejected,
// not dispatched.
func TestServeEvaluateMissingDLRBoundsGate(t *testing.T) {
	s := edattack.NewServer(edattack.ServeConfig{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	events := servePost(t, ts.URL, "/v1/evaluate", map[string]any{
		"case": "case9", "dlr": map[string]float64{"1": 1e6},
	})
	for _, ev := range events {
		if ev.Event == "result" {
			t.Fatal("out-of-band manipulation was dispatched, want rejection")
		}
	}
}

// TestRecordServeBaseline records the serving-layer latency baseline into
// BENCH_serve.json. Gated behind BENCH_SERVE=1 because it rewrites a
// checked-in artifact:
//
//	BENCH_SERVE=1 go test -run TestRecordServeBaseline
func TestRecordServeBaseline(t *testing.T) {
	if os.Getenv("BENCH_SERVE") == "" {
		t.Skip("set BENCH_SERVE=1 to (re)record BENCH_serve.json")
	}
	var records []serveBaselineRecord
	for _, name := range []string{"case118"} {
		m := measureServe(t, name, 5, 64, 4, 2)
		records = append(records, serveBaselineRecord{
			Case:            name,
			ColdAttackMS:    float64(m.cold.Microseconds()) / 1000,
			WarmAttackP50MS: float64(m.warmP50.Microseconds()) / 1000,
			WarmSpeedup:     m.cold.Seconds() / m.warmP50.Seconds(),
			WarmHitRate:     m.warmHit,
			EvaluateP50MS:   float64(m.evalP50.Microseconds()) / 1000,
			EvaluateP99MS:   float64(m.evalP99.Microseconds()) / 1000,
			EvaluateRPS:     m.evalRPS,
			AttackRPS:       m.attackRPS,
			AllocsPerSolve:  measureEvaluateAllocs(t, name, 32),
			AllocsPerNode:   perNodeAllocs(t, name, 40),
			HeapLiveBytes:   m.heapLive,
		})
	}
	out, err := json.MarshalIndent(map[string]any{
		"note":    "attack-as-a-service latency and allocation baseline (budgeted case118 attack cold vs warm-cache repeats, p50 of 5 repeats, a 4×2 closed-loop concurrent attack burst, a 64-request evaluate burst on the warm topology, allocs per warm workspace-backed evaluate, and marginal allocs per branch-and-bound node); wall numbers machine-dependent, allocation counts are not; regenerate with BENCH_SERVE=1 go test -run TestRecordServeBaseline",
		"cpus":    runtime.GOMAXPROCS(0),
		"records": records,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println(string(out))
}
