package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestWrapRequestID covers both halves of request-ID propagation: an
// incoming X-Request-Id is honored (echoed on the response, visible in the
// handler's context), and a missing one is minted.
func TestWrapRequestID(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetricsBuckets(reg, nil, nil, nil)
	var seen string
	h := m.Wrap("/v1/test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
		w.WriteHeader(http.StatusOK)
	}))

	req := httptest.NewRequest("GET", "/v1/test", nil)
	req.Header.Set(RequestIDHeader, "upstream-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "upstream-42" {
		t.Errorf("context request ID = %q, want upstream-42", seen)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "upstream-42" {
		t.Errorf("echoed request ID = %q, want upstream-42", got)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/test", nil))
	minted := rec.Header().Get(RequestIDHeader)
	if minted == "" || minted != seen {
		// seen was re-assigned by the second request's handler run.
		t.Errorf("minted ID %q not propagated to context (%q)", minted, seen)
	}
	if other := NewRequestID(); other == minted {
		t.Errorf("request IDs not unique: %q repeated", minted)
	}
}

// TestWrapStatusClasses locks the status-class counter: each response
// status lands in its class child, defaulting to 2xx when the handler
// writes a body without an explicit WriteHeader.
func TestWrapStatusClasses(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetricsBuckets(reg, nil, nil, nil)
	mux := http.NewServeMux()
	mux.Handle("/ok", m.Wrap("/ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "implicit 200") // no WriteHeader: net/http defaults
	})))
	mux.Handle("/missing", m.Wrap("/missing", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})))
	mux.Handle("/busy", m.Wrap("/busy", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})))
	for path, n := range map[string]int{"/ok": 3, "/missing": 2, "/busy": 1} {
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		}
	}
	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		`evorec_http_requests_total{class="2xx",method="GET",route="/ok"}`:      3,
		`evorec_http_requests_total{class="4xx",method="GET",route="/missing"}`: 2,
		`evorec_http_requests_total{class="5xx",method="GET",route="/busy"}`:    1,
	} {
		if snap[key] != want {
			t.Errorf("snapshot[%s] = %v, want %v", key, snap[key], want)
		}
	}
	if got := snap[`evorec_http_response_bytes_total{route="/ok"}`]; got != 3*float64(len("implicit 200")) {
		t.Errorf("response bytes = %v, want %v", got, 3*len("implicit 200"))
	}
	if got := snap["evorec_http_in_flight"]; got != 0 {
		t.Errorf("in-flight after all responses = %v, want 0", got)
	}
}

// TestWrapConcurrent hammers one instrumented route from many goroutines
// (the -race CI job runs this under the race detector) and asserts the
// histogram's bucket assignment stays conserved: every request lands in
// exactly one bucket, the cumulative +Inf bucket, the count and the
// request counter all agree.
func TestWrapConcurrent(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetricsBuckets(reg, NewLogger(&strings.Builder{}, "error"), nil, nil)
	h := m.Wrap("/v1/datasets/{name}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/datasets/demo", nil))
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	snap := reg.Snapshot()
	if got := snap[`evorec_http_request_seconds_count{route="/v1/datasets/{name}"}`]; got != total {
		t.Errorf("latency count = %v, want %d", got, total)
	}
	if got := snap[`evorec_http_request_seconds_bucket{le="+Inf",route="/v1/datasets/{name}"}`]; got != total {
		t.Errorf("+Inf bucket = %v, want %d (every observation must land in a bucket)", got, total)
	}
	if got := snap[`evorec_http_requests_total{class="2xx",method="GET",route="/v1/datasets/{name}"}`]; got != total {
		t.Errorf("request counter = %v, want %d", got, total)
	}
	// Cumulative buckets must be monotone nondecreasing up to +Inf.
	prev := 0.0
	for _, b := range DefBuckets {
		key := fmt.Sprintf(`evorec_http_request_seconds_bucket{le=%q,route="/v1/datasets/{name}"}`, formatFloat(b))
		if v, ok := snap[key]; !ok {
			t.Errorf("missing bucket %s", key)
		} else if v < prev {
			t.Errorf("bucket %s = %v < previous %v (not cumulative)", key, v, prev)
		} else {
			prev = v
		}
	}
}

// TestWrapNil locks the off switch: with neither registry nor logger the
// middleware is a nil receiver and hands handlers back unchanged.
func TestWrapNil(t *testing.T) {
	m := NewHTTPMetricsBuckets(nil, nil, nil, nil)
	if m != nil {
		t.Fatal("NewHTTPMetricsBuckets(nil, nil, nil, nil) != nil")
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := m.Wrap("/x", h); fmt.Sprintf("%p", got) != fmt.Sprintf("%p", h) {
		t.Error("nil middleware did not return the handler unchanged")
	}
}

// TestRouteLabel locks the pattern -> label derivation.
func TestRouteLabel(t *testing.T) {
	for pattern, want := range map[string]string{
		"GET /v1/datasets/{name}": "/v1/datasets/{name}",
		"PUT /v1/x":               "/v1/x",
		"/bare":                   "/bare",
		// Parameterized multi-segment patterns keep every wildcard.
		"POST /v1/datasets/{name}/versions/{id}": "/v1/datasets/{name}/versions/{id}",
		"GET /v1/datasets/{name}/feed/{id}":      "/v1/datasets/{name}/feed/{id}",
		// Unknown/degenerate patterns pass through unchanged: no method
		// prefix to strip, or a first token that is itself a path.
		"":                     "",
		"GET":                  "GET",
		"/a/b c/d":             "/a/b c/d",
		"OPTIONS {$}":          "{$}",
		"GET example.com/path": "example.com/path",
	} {
		if got := RouteLabel(pattern); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", pattern, got, want)
		}
	}
}

// TestParseBuckets pins the -latency-buckets grammar: comma-separated
// positive finite seconds in strict ascent, +Inf implicit.
func TestParseBuckets(t *testing.T) {
	got, err := ParseBuckets("0.005, 0.05,0.5,2")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.005, 0.05, 0.5, 2}
	if len(got) != len(want) {
		t.Fatalf("ParseBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseBuckets = %v, want %v", got, want)
		}
	}
	if b, err := ParseBuckets("0.25"); err != nil || len(b) != 1 || b[0] != 0.25 {
		t.Errorf("single bound: %v, %v", b, err)
	}
	for _, bad := range []string{
		"",         // no bounds at all
		"0.1,,0.5", // empty element
		"0.1,abc",  // not a number
		"0.1,+Inf", // +Inf is implicit, never listed
		"NaN",      // not a usable bound
		"0,0.1",    // bounds must be positive
		"-0.1,0.5", // negative
		"0.1,0.1",  // must strictly ascend
		"0.5,0.1",  // descending
	} {
		if _, err := ParseBuckets(bad); err == nil {
			t.Errorf("ParseBuckets(%q) accepted an invalid schedule", bad)
		}
	}
}

// TestCustomLatencyBuckets threads a custom schedule end to end: the
// request-latency histogram exposes exactly the configured le bounds (plus
// +Inf), not the default schedule.
func TestCustomLatencyBuckets(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetricsBuckets(reg, nil, nil, []float64{0.001, 1})
	h := m.Wrap("/v1/custom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/custom", nil))

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`evorec_http_request_seconds_bucket{le="0.001",route="/v1/custom"}`,
		`evorec_http_request_seconds_bucket{le="1",route="/v1/custom"}`,
		`evorec_http_request_seconds_bucket{le="+Inf",route="/v1/custom"} 1`,
		`evorec_http_request_seconds_count{route="/v1/custom"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, `le="0.005"`) {
		t.Error("default bucket schedule leaked into a custom-bucket histogram")
	}
}
