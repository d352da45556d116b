package obs

import (
	"strings"
	"testing"
)

// TestExpositionGolden locks the Prometheus text format (version 0.0.4)
// byte for byte across every instrument kind: HELP/TYPE headers, sorted
// families, sorted label blocks, cumulative histogram buckets with le
// labels, and shortest-round-trip float rendering.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_ops_total", "Operations.").Add(3)
	reg.Gauge("test_depth", "Queue depth.").Set(2.5)
	h := reg.Histogram("test_batch_size", "Batch sizes.", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)
	rv := reg.CounterVec("test_req_total", "Requests.", "route", "class")
	rv.With("/a", "2xx").Inc()
	rv.With("/a", "5xx").Add(2)
	hv := reg.HistogramVec("test_lat_seconds", "Latency.", []float64{0.5}, "route")
	hv.With("/a").Observe(0.25)

	const want = `# HELP test_batch_size Batch sizes.
# TYPE test_batch_size histogram
test_batch_size_bucket{le="1"} 1
test_batch_size_bucket{le="2"} 1
test_batch_size_bucket{le="4"} 2
test_batch_size_bucket{le="+Inf"} 3
test_batch_size_sum 104
test_batch_size_count 3
# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 2.5
# HELP test_lat_seconds Latency.
# TYPE test_lat_seconds histogram
test_lat_seconds_bucket{le="0.5",route="/a"} 1
test_lat_seconds_bucket{le="+Inf",route="/a"} 1
test_lat_seconds_sum{route="/a"} 0.25
test_lat_seconds_count{route="/a"} 1
# HELP test_ops_total Operations.
# TYPE test_ops_total counter
test_ops_total 3
# HELP test_req_total Requests.
# TYPE test_req_total counter
test_req_total{class="2xx",route="/a"} 1
test_req_total{class="5xx",route="/a"} 2
`
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGetOrCreate locks the registry's sharing semantics: the same name
// yields the same instrument (so every layer binding a series on one
// registry shares it), and reusing a name with a different kind panics.
func TestGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "X.")
	b := reg.Counter("x_total", "ignored on rebind")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Errorf("shared counter value = %v, want 1", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("x_total", "now a gauge")
}

// TestNilSafety exercises every nil path: a nil registry hands out nil
// instruments whose methods are all no-ops, which is how the whole
// substrate switches off.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("a", "").Inc()
	reg.Gauge("b", "").Set(1)
	reg.Histogram("c", "", nil).Observe(1)
	reg.CounterVec("d", "", "l").With("v").Inc()
	reg.HistogramVec("e", "", nil, "l").With("v").Observe(1)
	NewHTTPMetricsBuckets(reg, nil, nil, nil)
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if n := len(reg.Snapshot()); n != 0 {
		t.Errorf("nil registry snapshot has %d series", n)
	}
}

// TestLabelEscaping locks the escaping of quotes, backslashes and newlines
// in label values.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("esc_total", "Escapes.", "v").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{v="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition %q does not contain %q", sb.String(), want)
	}
}
