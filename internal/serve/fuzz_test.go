package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzDecodeRequest drives request decoding (Server.newJob) with arbitrary
// bodies on every job endpoint and runs no solve. Each body must either be
// refused with 400 or 413 or yield a job whose fields pass validation: a
// canonical non-empty case name, non-negative budgets, a deadline no
// longer than the server's, and a rating map on evaluate jobs. The seed
// corpus in testdata/fuzz/FuzzDecodeRequest holds the bodies the
// bad-request tests send and one valid body per kind; the first argument
// picks the kind (0 attack, 1 evaluate, 2 sweep).
func FuzzDecodeRequest(f *testing.F) {
	kinds := []jobKind{kindAttack, kindEvaluate, kindSweep}
	s := &Server{cfg: Config{}.withDefaults()}
	f.Fuzz(func(t *testing.T, k uint8, body []byte) {
		kind := kinds[int(k)%len(kinds)]
		r := httptest.NewRequest(http.MethodPost, "/v1/"+string(kind), bytes.NewReader(body))
		w := httptest.NewRecorder()
		j, status, err := s.newJob(kind, w, r)
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejected %q with status %d (%v), want 400 or 413", body, status, err)
			}
			if j != nil {
				t.Fatalf("rejected %q but returned a job", body)
			}
			return
		}
		defer j.cancel()
		req := j.req
		if req.Case == "" || req.Case != strings.ToLower(strings.TrimSpace(req.Case)) {
			t.Fatalf("admitted case %q from %q", req.Case, body)
		}
		if req.DeadlineMS < 0 || req.MaxNodes < 0 || req.MaxRounds < 0 {
			t.Fatalf("admitted negative bounds %+v from %q", req, body)
		}
		if kind == kindEvaluate && len(req.DLR) == 0 {
			t.Fatalf("admitted an evaluate job with no dlr from %q", body)
		}
		deadline, ok := j.ctx.Deadline()
		if !ok || deadline.After(j.accepted.Add(s.cfg.DefaultDeadline)) {
			t.Fatalf("job deadline %v past the server's %v from %q", deadline, s.cfg.DefaultDeadline, body)
		}
		if j.kind != kind || j.out == nil || j.id == "" {
			t.Fatalf("malformed job %+v from %q", j, body)
		}
	})
}
