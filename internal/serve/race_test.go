package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// postJobErr is the goroutine-safe postJob: it returns errors instead of
// failing the test, so concurrent clients can report through a channel.
func postJobErr(url, path string, body any) ([]streamEvent, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	return decodeEvents(resp.Body)
}

// decodeEvents reads an NDJSON event stream to its end.
func decodeEvents(r io.Reader) ([]streamEvent, error) {
	var events []streamEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events, sc.Err()
}

// resultOfErr is resultOf without the testing.T dependency.
func resultOfErr(events []streamEvent) (streamEvent, error) {
	if len(events) != 3 || events[0].Event != "accepted" || events[1].Event != "result" || events[2].Event != "done" {
		return streamEvent{}, fmt.Errorf("got events %+v, want accepted/result/done", events)
	}
	return events[1], nil
}

// TestServeConcurrentSameTopology fires a burst of mixed evaluate and sweep
// requests at one server, all on case9, from many goroutines at once — the
// concurrency witness the race detector runs in CI. Every request must
// succeed, every evaluate must report the identical verdict, and every
// same-seed sweep must report the identical aggregate: concurrency over a
// shared topology bundle must not perturb results.
func TestServeConcurrentSameTopology(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	evalBody := map[string]any{
		"case": "case9",
		"dlr":  map[string]float64{"1": 260, "7": 240},
	}
	sweepBody := map[string]any{
		"case":  "case9",
		"draws": 8,
		"seed":  7,
	}

	// Serial references: the verdicts every concurrent request must match.
	wantEval, err := resultOfErr(mustPost(t, ts.URL, "/v1/evaluate", evalBody))
	if err != nil {
		t.Fatal(err)
	}
	wantSweep, err := resultOfErr(mustPost(t, ts.URL, "/v1/sweep", sweepBody))
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				events, err := postJobErr(ts.URL, "/v1/evaluate", evalBody)
				if err == nil {
					var res streamEvent
					if res, err = resultOfErr(events); err == nil {
						if *res.Evaluation != *wantEval.Evaluation {
							err = fmt.Errorf("evaluate diverged: %+v vs %+v", res.Evaluation, wantEval.Evaluation)
						}
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("client %d evaluate %d: %w", c, i, err)
					return
				}
				events, err = postJobErr(ts.URL, "/v1/sweep", sweepBody)
				if err == nil {
					var res streamEvent
					if res, err = resultOfErr(events); err == nil {
						got, want := *res.Sweep, *wantSweep.Sweep
						got.EvalMS, want.EvalMS = 0, 0
						if got != want {
							err = fmt.Errorf("sweep diverged: %+v vs %+v", res.Sweep, wantSweep.Sweep)
						}
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("client %d sweep %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// mustPost adapts postJob for use before the concurrent phase (still on the
// test goroutine, so t.Fatalf is fine).
func mustPost(t *testing.T, url, path string, body any) []streamEvent {
	t.Helper()
	return postJob(t, url, path, body)
}
