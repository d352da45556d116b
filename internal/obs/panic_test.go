package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWrapPanicContainment locks the containment contract: a panicking
// handler yields a 500 (not a dead connection), moves the per-route panic
// counter, logs the panic with its stack, and leaves the middleware's
// in-flight accounting balanced so the server keeps serving afterwards.
func TestWrapPanicContainment(t *testing.T) {
	reg := NewRegistry()
	var buf strings.Builder
	m := NewHTTPMetricsBuckets(reg, NewLogger(&buf, "error"), nil, nil)
	mux := http.NewServeMux()
	mux.Handle("/boom", m.Wrap("/boom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})))
	mux.Handle("/ok", m.Wrap("/ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})))

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	// The server is still alive: a healthy route serves right after.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy route after a panic answered %d, want 200", rec.Code)
	}

	snap := reg.Snapshot()
	if got := snap[`evorec_http_panics_total{route="/boom"}`]; got != 1 {
		t.Errorf("panic counter = %v, want 1", got)
	}
	if got := snap[`evorec_http_requests_total{class="5xx",method="GET",route="/boom"}`]; got != 1 {
		t.Errorf("5xx counter for the panicking route = %v, want 1", got)
	}
	if got := snap["evorec_http_in_flight"]; got != 0 {
		t.Errorf("in-flight after containment = %v, want 0 (leaked decrement)", got)
	}
	log := buf.String()
	if !strings.Contains(log, "kaboom") || !strings.Contains(log, "stack") {
		t.Errorf("panic log lacks the panic value or stack: %q", log)
	}
}

// TestWrapPanicAbortHandler verifies http.ErrAbortHandler keeps its
// net/http meaning: it is re-raised (the server's own recovery eats it as
// the standard abort-the-response signal) and never counted as a panic.
func TestWrapPanicAbortHandler(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetricsBuckets(reg, nil, nil, nil)
	h := m.Wrap("/abort", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler { //nolint:errorlint // sentinel identity is the contract
				t.Fatalf("recovered %v, want http.ErrAbortHandler re-raised", r)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/abort", nil))
	}()
	snap := reg.Snapshot()
	if got := snap[`evorec_http_panics_total{route="/abort"}`]; got != 0 {
		t.Errorf("abort sentinel counted as a panic: %v", got)
	}
	if got := snap["evorec_http_in_flight"]; got != 0 {
		t.Errorf("in-flight after abort = %v, want 0", got)
	}
}
