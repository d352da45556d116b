package server_test

import (
	"net/http"
	"strings"
	"testing"

	"evorec/internal/obs"
	"evorec/internal/server"
	"evorec/internal/service"
)

// TestServerMetricsEndpoint wires a registry through the server config and
// checks the full loop: instrumented requests show up as series on the
// API mux's own GET /metrics, in valid exposition form, and /healthz
// answers alongside.
func TestServerMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	svc := service.New(service.Config{Metrics: reg})
	if _, err := svc.Add("gallery", galleryVersions(t)); err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithConfig(svc, server.Config{Metrics: reg})

	if w := do(t, srv, "GET", "/v1/datasets/gallery", ""); w.Code != http.StatusOK {
		t.Fatalf("inspect = %d", w.Code)
	}
	if w := do(t, srv, "GET", "/v1/datasets/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("missing dataset = %d", w.Code)
	}

	w := do(t, srv, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE evorec_http_requests_total counter",
		`evorec_http_requests_total{class="2xx",method="GET",route="/v1/datasets/{name}"} 1`,
		`evorec_http_requests_total{class="4xx",method="GET",route="/v1/datasets/{name}"} 1`,
		"# TYPE evorec_http_request_seconds histogram",
		"evorec_http_in_flight 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q in:\n%s", want, body)
		}
	}

	h := do(t, srv, "GET", "/healthz", "")
	if h.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", h.Code)
	}
	if got := h.Body.String(); !strings.Contains(got, `"status": "ok"`) ||
		!strings.Contains(got, `"service": "evorec"`) {
		t.Errorf("healthz body = %s", got)
	}
}

// TestServerRetryAfterConfigurable locks the 503 path: the configured
// Retry-After rides the response (deterministically forced through a
// closed dataset -> ErrDatasetClosed) and each rejection lands in the
// rejection counter.
func TestServerRetryAfterConfigurable(t *testing.T) {
	reg := obs.NewRegistry()
	svc := service.New(service.Config{})
	if _, err := svc.Add("gallery", galleryVersions(t)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithConfig(svc, server.Config{RetryAfterSeconds: 7, Metrics: reg})

	w := do(t, srv, "POST", "/v1/datasets/gallery/versions/v9", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("commit on closed dataset = %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}
	if got := reg.Snapshot()["evorec_http_rejections_total"]; got != 1 {
		t.Errorf("rejections counter = %v, want 1", got)
	}
}

// TestServerRetryAfterDefault locks the zero-config behavior New promises:
// the historical 1-second hint.
func TestServerRetryAfterDefault(t *testing.T) {
	svc := service.New(service.Config{})
	if _, err := svc.Add("gallery", galleryVersions(t)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithConfig(svc, server.Config{})
	w := do(t, srv, "POST", "/v1/datasets/gallery/versions/v9", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("commit on closed dataset = %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
}
