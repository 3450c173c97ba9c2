package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/dispatch"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob posts one request body and decodes the NDJSON stream.
func postJob(t *testing.T, url, path string, body any) []streamEvent {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var events []streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return events
}

// resultOf asserts the stream is accepted → result → done and returns the
// result event.
func resultOf(t *testing.T, events []streamEvent) streamEvent {
	t.Helper()
	if len(events) != 3 {
		t.Fatalf("got %d events %+v, want accepted/result/done", len(events), events)
	}
	if events[0].Event != "accepted" || events[1].Event != "result" || events[2].Event != "done" {
		t.Fatalf("event sequence %q %q %q, want accepted result done",
			events[0].Event, events[1].Event, events[2].Event)
	}
	return events[1]
}

// errorOf asserts the stream is accepted → error → done and returns the
// error event.
func errorOf(t *testing.T, events []streamEvent) streamEvent {
	t.Helper()
	if len(events) != 3 || events[1].Event != "error" {
		t.Fatalf("got events %+v, want accepted/error/done", events)
	}
	return events[1]
}

func TestEvaluateRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	res := resultOf(t, postJob(t, ts.URL, "/v1/evaluate", map[string]any{
		"case": "case9",
		"dlr":  map[string]float64{"1": 260, "7": 240},
	}))
	if res.Evaluation == nil {
		t.Fatalf("result carries no evaluation: %+v", res)
	}

	// The service answer must match the library called directly.
	net, err := cases.Load("case9")
	if err != nil {
		t.Fatal(err)
	}
	model, err := dispatch.BuildModel(net)
	if err != nil {
		t.Fatal(err)
	}
	ud := map[int]float64{}
	for _, li := range net.DLRLines() {
		ud[li] = net.Lines[li].RateMVA
	}
	k, err := core.NewKnowledge(model, ud)
	if err != nil {
		t.Fatal(err)
	}
	want, err := k.EvaluateAttack(map[int]float64{1: 260, 7: 240})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluation.Feasible != want.Feasible || res.Evaluation.GainPct != want.GainPct ||
		res.Evaluation.WorstLine != want.WorstLine {
		t.Errorf("served evaluation %+v, want feasible=%v gain=%v worst=%v",
			res.Evaluation, want.Feasible, want.GainPct, want.WorstLine)
	}
}

func TestAttackBitIdenticalAndWarm(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, Config{Metrics: reg})

	req := map[string]any{"case": "case9"}
	first := resultOf(t, postJob(t, ts.URL, "/v1/attack", req))
	if first.Attack == nil {
		t.Fatalf("no attack in result: %+v", first)
	}
	if first.Attack.WarmBases == 0 {
		t.Errorf("first attack stored no warm bases")
	}
	second := resultOf(t, postJob(t, ts.URL, "/v1/attack", req))

	// Bit-identical across cold and warm-cache-seeded requests, and to a
	// direct library run.
	if !reflect.DeepEqual(first.Attack.DLR, second.Attack.DLR) ||
		first.Attack.GainPct != second.Attack.GainPct ||
		first.Attack.TargetLine != second.Attack.TargetLine {
		t.Errorf("warm repeat diverged: first %+v second %+v", first.Attack, second.Attack)
	}
	entry, err := s.topos.get("case9")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.FindOptimalAttack(entry.statics, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Attack.GainPct != want.GainPct || !reflect.DeepEqual(first.Attack.DLR, want.DLR) {
		t.Errorf("served attack gain %v dlr %v, want %v %v",
			first.Attack.GainPct, first.Attack.DLR, want.GainPct, want.DLR)
	}
	if hits := reg.Counter("core_warmcache_hits_total").Value(); hits == 0 {
		t.Errorf("second attack hit no warm bases")
	}
}

func TestSweepCoalescing(t *testing.T) {
	// Reference: a no-batching server answering the same request.
	_, solo := newTestServer(t, Config{BatchWindow: -1})
	req := map[string]any{
		"case": "case9", "hours": []float64{0, 12}, "magnitudes": []float64{0, 0.2},
		"draws": 16, "seed": 7,
	}
	want := resultOf(t, postJob(t, solo.URL, "/v1/sweep", req))
	if want.Sweep == nil || want.Sweep.MergedJobs != 1 {
		t.Fatalf("unbatched sweep result %+v, want merged_jobs=1", want.Sweep)
	}

	// A wide window so two concurrent requests coalesce.
	_, ts := newTestServer(t, Config{BatchWindow: 300 * time.Millisecond})
	results := make([]streamEvent, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = resultOf(t, postJob(t, ts.URL, "/v1/sweep", req))
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Sweep == nil {
			t.Fatalf("request %d: no sweep result", i)
		}
		if res.Sweep.MergedJobs != 2 {
			t.Errorf("request %d: merged_jobs = %d, want 2", i, res.Sweep.MergedJobs)
		}
		// Batched results are bit-identical to the unbatched pass.
		if res.Sweep.Scenarios != want.Sweep.Scenarios ||
			res.Sweep.Dangerous != want.Sweep.Dangerous ||
			res.Sweep.Detected != want.Sweep.Detected ||
			res.Sweep.Success != want.Sweep.Success ||
			res.Sweep.MeanCost != want.Sweep.MeanCost {
			t.Errorf("request %d: batched %+v diverges from unbatched %+v", i, res.Sweep, want.Sweep)
		}
	}
}

func TestDeadlineExpiredJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ev := errorOf(t, postJob(t, ts.URL, "/v1/attack", map[string]any{
		"case": "case118", "deadline_ms": 1,
	}))
	if ev.Code != "deadline_exceeded" {
		t.Errorf("error code %q (%s), want deadline_exceeded", ev.Code, ev.Error)
	}
}

// A request's deadline_ms can shorten the server's deadline (above) but not
// extend it: under a 1 ms server deadline a budgeted case118 attack asking
// for ten minutes still ends at the server's bound.
func TestRequestDeadlineCannotExtend(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultDeadline: time.Millisecond})
	ev := errorOf(t, postJob(t, ts.URL, "/v1/attack", map[string]any{
		"case": "case118", "max_nodes": 40, "deadline_ms": 600000,
	}))
	if ev.Code != "deadline_exceeded" {
		t.Errorf("error code %q (%s), want deadline_exceeded", ev.Code, ev.Error)
	}
}

// Negative budgets and deadlines are rejected before admission.
func TestNegativeBoundsAnswer400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/attack", `{"case":"case9","max_nodes":-1}`},
		{"/v1/attack", `{"case":"case9","max_rounds":-3}`},
		{"/v1/attack", `{"case":"case9","deadline_ms":-1}`},
		{"/v1/evaluate", `{"case":"case9","dlr":{"0":1},"deadline_ms":-1000}`},
		{"/v1/sweep", `{"case":"case9","deadline_ms":-1}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	resultOf(t, postJob(t, ts.URL, "/v1/attack", map[string]any{"case": "case9", "max_nodes": 0, "max_rounds": 0}))
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		path string
		body string
		want int
	}{
		{"/v1/attack", `{`, http.StatusBadRequest},
		{"/v1/attack", `{}`, http.StatusBadRequest},
		{"/v1/evaluate", `{"case":"case9"}`, http.StatusBadRequest},
		{"/v1/attack", `{"case":"case9","bogus":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %q: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/attack")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET job endpoint: status %d, want 405", resp.StatusCode)
	}

	// An unknown case is a stream-level error: the job parses fine and
	// fails at topology build.
	ev := errorOf(t, postJob(t, ts.URL, "/v1/evaluate", map[string]any{
		"case": "case999", "dlr": map[string]float64{"0": 1},
	}))
	if ev.Code != "bad_request" {
		t.Errorf("unknown case: code %q, want bad_request", ev.Code)
	}
}

// TestOversizedBodyAnswers413 checks the request body cap: a full-precision
// rating map over every grow1000 line fits well under it, a body past it is
// refused with 413 before any work is queued, and the daemon keeps serving.
func TestOversizedBodyAnswers413(t *testing.T) {
	net, err := cases.Load("grow1000")
	if err != nil {
		t.Fatal(err)
	}
	full := map[int]float64{}
	for i := range net.Lines {
		full[i] = net.Lines[i].RateMVA * 1.2345678901234567
	}
	fits, err := json.Marshal(map[string]any{"case": "grow1000", "dlr": full, "true_dlr": full})
	if err != nil {
		t.Fatal(err)
	}
	if 4*len(fits) > maxRequestBytes {
		t.Fatalf("full grow1000 body is %d bytes, too close to the %d-byte cap", len(fits), maxRequestBytes)
	}

	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg})
	var body strings.Builder
	body.WriteString(`{"case":"case9","dlr":{`)
	for i := 0; body.Len() <= maxRequestBytes; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `"%d":260.123456789`, i)
	}
	body.WriteString(`}}`)
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if n := reg.Counter("serve_requests_total").Value(); n != 0 {
		t.Errorf("oversized body was admitted: serve_requests_total = %d", n)
	}
	if n := reg.Counter("serve_bad_request_total").Value(); n != 1 {
		t.Errorf("serve_bad_request_total = %d, want 1", n)
	}

	res := resultOf(t, postJob(t, ts.URL, "/v1/evaluate", map[string]any{
		"case": "case9",
		"dlr":  map[string]float64{"1": 260, "7": 240},
	}))
	if res.Evaluation == nil {
		t.Fatalf("request after the oversized one carries no evaluation: %+v", res)
	}
}

// blocker occupies a worker until released.
type blocker struct{ release chan struct{} }

func (b blocker) execute(*Server) { <-b.release }

func TestQueueFullAnswers429(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg})

	// Occupy the single worker and fill the run buffer.
	release := make(chan struct{})
	s.run <- blocker{release}
	s.run <- blocker{release}
	defer close(release)

	// Top up the admission queue until it stays full: the batcher can
	// drain at most one job before blocking on the full run channel.
	dummy := func() *job {
		ctx, cancel := context.WithCancel(context.Background())
		return &job{id: "test", kind: kindAttack, ctx: ctx, cancel: cancel,
			out: make(chan streamEvent, 4)}
	}
	deadlineAt := time.Now().Add(5 * time.Second)
	for filled := 0; filled < 2; {
		select {
		case s.admit <- dummy():
			filled = 0
		default:
			filled++
			time.Sleep(time.Millisecond)
		}
		if time.Now().After(deadlineAt) {
			t.Fatal("could not saturate admission queue")
		}
	}

	resp, err := http.Post(ts.URL+"/v1/attack", "application/json",
		strings.NewReader(`{"case":"case9"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if v := reg.Counter("serve_rejected_total").Value(); v != 1 {
		t.Errorf("serve_rejected_total = %d, want 1", v)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	resultOf(t, postJob(t, ts.URL, "/v1/evaluate", map[string]any{
		"case": "case9", "dlr": map[string]float64{"1": 260},
	}))

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Workers != 2 || doc.QueueCap != 8 || doc.Topologies != 1 {
		t.Errorf("stats %+v, want workers=2 queue_cap=8 topologies=1", doc)
	}

	// The debug/metrics surface is mounted on the same listener.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics status %d", resp.StatusCode)
	}
}

func TestCloseAnswers503(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	resp, err := http.Post(ts.URL+"/v1/attack", "application/json",
		strings.NewReader(`{"case":"case9"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status after Close = %d, want 503", resp.StatusCode)
	}
	// Idempotent.
	s.Close()
}

func TestTopoCacheEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	tc := newTopoCache(2, reg)
	for _, name := range []string{"case3", "case9", "case3", "case30"} {
		if _, err := tc.get(name); err != nil {
			t.Fatal(err)
		}
	}
	// case9 was least recently used at capacity overflow.
	if tc.len() != 2 {
		t.Fatalf("len = %d, want 2", tc.len())
	}
	if _, ok := tc.entries["case9"]; ok {
		t.Errorf("case9 survived eviction; resident: %v", keysOf(tc))
	}
	if v := reg.Counter("serve_topo_evictions_total").Value(); v != 1 {
		t.Errorf("evictions = %d, want 1", v)
	}
	if v := reg.Counter("serve_topo_hits_total").Value(); v != 1 {
		t.Errorf("hits = %d, want 1", v)
	}
}

func keysOf(tc *topoCache) []string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var out []string
	for name := range tc.entries {
		out = append(out, name)
	}
	return out
}

func TestSweepDefaultsAndStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	res := resultOf(t, postJob(t, ts.URL, "/v1/sweep", map[string]any{"case": "case9", "draws": 8}))
	if res.Sweep == nil || res.Sweep.Scenarios != 8 {
		t.Fatalf("sweep result %+v, want 8 scenarios", res.Sweep)
	}
	if res.Sweep.MergedJobs != 1 {
		t.Errorf("merged_jobs = %d, want 1", res.Sweep.MergedJobs)
	}
}

func TestJobIDsUnique(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := s.nextID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
	if fmt.Sprintf("j%d", 101) != s.nextID() {
		t.Errorf("ids not sequential")
	}
}
