package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
	"github.com/edsec/edattack/internal/sweep"
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
	events, err := decodeEvents(resp.Body)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return events
}

// postAdmitted posts an evaluate body and returns the response as soon as
// the job is admitted: the handler flushes the accepted line then, while
// the job still waits or runs. The caller reads and closes the body.
func postAdmitted(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// parkFirstSolve parks the first job to reach its solve phase until the
// returned release is called; parked is closed once it is there. Call it
// before starting the test server, and defer release: it is idempotent,
// and a failed check must not leave a worker parked when the server's
// cleanup waits for its jobs.
func parkFirstSolve(t *testing.T) (parked <-chan struct{}, release func()) {
	in, unpark := make(chan struct{}), make(chan struct{})
	var first sync.Once
	setSolveHook(t, func(jobKind) {
		first.Do(func() {
			close(in)
			<-unpark
		})
	})
	return in, sync.OnceFunc(func() { close(unpark) })
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

// TestServedSweepMatchesLibrary pins a served sweep to the library path —
// sweep.GenScenarios plus one sweep.Eval over sweep.Precompute(net) —
// field for field and bit for bit (all but the wall-clock eval_ms), and
// checks that the topology's Precomp is reused until the topology is
// evicted.
func TestServedSweepMatchesLibrary(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{MaxTopologies: 1, Metrics: reg})
	hours, mags := []float64{0, 12}, []float64{0, 0.2}
	req := map[string]any{"case": "case30", "hours": hours, "magnitudes": mags, "draws": 16, "seed": 7}
	got := resultOf(t, postJob(t, ts.URL, "/v1/sweep", req)).Sweep
	if got == nil {
		t.Fatal("no sweep result")
	}

	net, err := cases.Load("case30")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := sweep.Precompute(net)
	if err != nil {
		t.Fatal(err)
	}
	scs, _, err := sweep.GenScenarios(pc, sweep.SurfaceConfig{Hours: hours, Magnitudes: mags, Draws: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sweep.Eval(pc, scs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sweepResult{MergedJobs: 1}
	var cost float64
	for _, out := range outs {
		want.Scenarios++
		if out.Dangerous {
			want.Dangerous++
		}
		if out.Detected {
			want.Detected++
		}
		if out.Success {
			want.Success++
		}
		cost += out.Cost
	}
	want.Rate = float64(want.Success) / float64(want.Scenarios)
	want.MeanCost = cost / float64(want.Scenarios)
	if want.Scenarios != 64 || want.Dangerous == 0 {
		t.Fatalf("library sweep %+v: want 64 scenarios, some dangerous", want)
	}
	g := *got
	g.EvalMS = 0
	if g != want || math.Float64bits(g.Rate) != math.Float64bits(want.Rate) ||
		math.Float64bits(g.MeanCost) != math.Float64bits(want.MeanCost) {
		t.Fatalf("served sweep %+v, want the library's %+v", g, want)
	}

	counts := func() (hits, misses int64) {
		return reg.Counter("sweep_cache_hits_total").Value(), reg.Counter("sweep_cache_misses_total").Value()
	}
	if h, m := counts(); h != 0 || m != 1 {
		t.Fatalf("first sweep: hits %d misses %d, want 0 and 1", h, m)
	}
	again := resultOf(t, postJob(t, ts.URL, "/v1/sweep", req)).Sweep
	again.EvalMS = 0
	if *again != want {
		t.Fatalf("repeat sweep %+v, want %+v", *again, want)
	}
	if h, m := counts(); h != 1 || m != 1 {
		t.Fatalf("repeat sweep: hits %d misses %d, want 1 and 1", h, m)
	}
	// case9 takes the single topology slot, so case30's next sweep rebuilds.
	resultOf(t, postJob(t, ts.URL, "/v1/sweep", map[string]any{"case": "case9", "draws": 4}))
	resultOf(t, postJob(t, ts.URL, "/v1/sweep", req))
	if h, m := counts(); h != 1 || m != 3 {
		t.Fatalf("after eviction: hits %d misses %d, want 1 and 3", h, m)
	}
	if v := reg.Counter("serve_topo_evictions_total").Value(); v != 2 {
		t.Errorf("serve_topo_evictions_total = %d, want 2", v)
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

	// So is a dlr map the EMS bound check rejects: out of band, on a line
	// with no DLR feed, and on a line index out of range.
	for _, dlr := range []map[string]float64{{"1": 1e6}, {"0": 100}, {"-3": 100}} {
		ev := errorOf(t, postJob(t, ts.URL, "/v1/evaluate", map[string]any{"case": "case9", "dlr": dlr}))
		if ev.Code != "bad_request" {
			t.Errorf("dlr %v: code %q (%s), want bad_request", dlr, ev.Code, ev.Error)
		}
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

// TestQueueFullAnswers429 checks that QueueDepth is the whole admission
// bound: with the only worker parked inside a job, exactly QueueDepth more
// jobs are admitted, the next is answered 429, and /v1/stats reports the
// full queue.
func TestQueueFullAnswers429(t *testing.T) {
	parked, release := parkFirstSolve(t)
	defer release()
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Metrics: reg})
	const body = `{"case":"case9","dlr":{"1":260,"7":240}}`

	admitted := []*http.Response{postAdmitted(t, ts.URL, body)}
	defer func() {
		for _, resp := range admitted {
			resp.Body.Close()
		}
	}()
	<-parked
	for i := 0; i < 2; i++ {
		admitted = append(admitted, postAdmitted(t, ts.URL, body))
	}
	for i, resp := range admitted {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	resp := postAdmitted(t, ts.URL, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job past QueueDepth: status %d, want 429", resp.StatusCode)
	}
	if v := reg.Counter("serve_rejected_total").Value(); v != 1 {
		t.Errorf("serve_rejected_total = %d, want 1", v)
	}
	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var doc statsDoc
	err = json.NewDecoder(stats.Body).Decode(&doc)
	stats.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.QueueDepth != 2 || doc.QueueCap != 2 {
		t.Errorf("stats queue_depth %d queue_cap %d, want 2 and 2", doc.QueueDepth, doc.QueueCap)
	}

	release()
	for i, resp := range admitted {
		events, err := decodeEvents(resp.Body)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res := resultOf(t, events); res.Evaluation == nil {
			t.Errorf("job %d answered %+v, want an evaluation", i, res)
		}
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

// TestCloseFailsQueuedJobs: Close answers every admitted job no worker has
// started with unavailable at once, lets the running job finish, and
// returns only after that.
func TestCloseFailsQueuedJobs(t *testing.T) {
	parked, release := parkFirstSolve(t)
	defer release()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	const body = `{"case":"case9","dlr":{"1":260,"7":240}}`
	running := postAdmitted(t, ts.URL, body)
	defer running.Body.Close()
	<-parked
	queued := []*http.Response{postAdmitted(t, ts.URL, body), postAdmitted(t, ts.URL, body)}
	defer func() {
		for _, resp := range queued {
			resp.Body.Close()
		}
	}()

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for i, resp := range queued {
		answered := make(chan []streamEvent, 1)
		go func() {
			events, err := decodeEvents(resp.Body)
			if err != nil {
				t.Errorf("queued job %d: %v", i, err)
			}
			answered <- events
		}()
		select {
		case events := <-answered:
			if ev := errorOf(t, events); ev.Code != "unavailable" {
				t.Errorf("queued job %d answered %+v, want code unavailable", i, ev)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("queued job %d still unanswered 10 s into Close", i)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	default:
	}
	release()
	<-closed
	events, err := decodeEvents(running.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res := resultOf(t, events); res.Evaluation == nil {
		t.Errorf("running job answered %+v, want its evaluation", res)
	}
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
