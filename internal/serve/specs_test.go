package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// submitRaw posts one graph straight to the handler and returns the job.
func submitRaw(t *testing.T, s *Server, body string) *job {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body))
	req.Header.Set("X-RAA-Tenant", "t0")
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
	}
	var resp SubmitResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[resp.Job]
}

// holdsSpecs reports, under the server lock, whether j still holds its
// compiled specs.
func holdsSpecs(s *Server, j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.specs != nil
}

// A job's compiled specs — closures, dependence slices, keys — belong to
// the pool once launched: neither a finished job kept in the history nor
// one cancelled before launch may still hold them.
func TestFinishedJobsHoldNoSpecs(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Config{
		Workers:        2,
		MaxRunningJobs: 1,
		Ops: map[string]Op{"block": func(ctx context.Context, _ int64) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	launched := submitRaw(t, s, `{"tasks": [
		{"op": "block", "deps": [{"key": "a", "mode": "out"}]},
		{"op": "noop", "deps": [{"key": "a", "mode": "in"}]}]}`)
	queued := submitRaw(t, s, `{"tasks": [{"op": "noop", "deps": [{"key": "a", "mode": "inout"}]}]}`)
	if !holdsSpecs(s, queued) {
		t.Fatal("queued job lost its specs before launch")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+queued.id+"/cancel", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", rec.Code, rec.Body)
	}
	close(release)
	<-launched.done
	<-queued.done
	if holdsSpecs(s, launched) {
		t.Error("launched job still holds its specs after finishing")
	}
	if holdsSpecs(s, queued) {
		t.Error("job cancelled before launch still holds its specs")
	}
}
