// Package obs is the observability substrate of the serving stack: a
// stdlib-only metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms, with Prometheus text exposition and an expvar
// mirror), structured request logging over log/slog with per-request IDs,
// an HTTP middleware that instruments every endpoint, and an ops mux
// bundling /metrics, /healthz and net/http/pprof.
//
// The layering rule is one seam for every layer: obs imports nothing of
// the stack, and every layer that reports (store, feed, service, server)
// imports obs and calls it directly. Each binds its own instruments from a
// *Registry and opens spans with StartSpan on the request's context. The
// whole substrate switches off by passing a nil registry and an untraced
// context: a nil registry hands out nil instruments and StartSpan returns
// a nil span, and every method on either is a no-op, so the
// uninstrumented hot paths pay a nil check and no allocation.
//
// Naming follows the Prometheus conventions (see DESIGN.md §11): every
// series is prefixed "evorec_", cumulative counters end in "_total",
// latency histograms in "_seconds", and label cardinality is bounded by
// construction (routes are mux patterns, never raw URLs; status codes are
// collapsed to classes).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of instruments. The zero value is not
// usable; NewRegistry constructs one. All methods are safe for concurrent
// use, and every Counter/Gauge/... accessor is get-or-create: asking twice
// for the same name returns the same instrument, so independently
// constructed sinks share series instead of colliding.
type Registry struct {
	mu    sync.Mutex
	names []string // registration order; exposition sorts
	insts map[string]instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{insts: make(map[string]instrument)}
}

// instrument is the exposition contract every metric family implements.
type instrument interface {
	// kind is the TYPE line value: "counter", "gauge" or "histogram".
	kind() string
	// help is the HELP line text.
	help() string
	// series appends the family's sample lines (name{labels} value) in
	// deterministic order. withEx asks histogram buckets to attach their
	// latest exemplar; other instruments ignore it.
	series(name string, out []sample, withEx bool) []sample
}

// sample is one exposition line before formatting.
type sample struct {
	// suffix extends the family name ("_bucket", "_sum", "_count", "").
	suffix string
	// labels is the rendered {…} block including braces, or "".
	labels string
	// value is the sample value.
	value float64
	// exemplar is the pre-rendered exemplar tail (" # {trace_id=...} v"),
	// or "" — emitted only by the opt-in exemplar exposition.
	exemplar string
}

// get returns the named instrument, creating it with mk on first use. A
// name reused with a different instrument kind panics: two call sites
// disagreeing on what a series means is a programming error no fallback
// can repair.
func (r *Registry) get(name string, mk func() instrument) instrument {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.insts[name]; ok {
		want := mk()
		if in.kind() != want.kind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, want.kind(), in.kind()))
		}
		return in
	}
	in := mk()
	r.insts[name] = in
	r.names = append(r.names, name)
	return in
}

// Counter returns the named monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, func() instrument { return &Counter{h: help} }).(*Counter)
}

// Gauge returns the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, func() instrument { return &Gauge{h: help} }).(*Gauge)
}

// Histogram returns the named fixed-bucket histogram. buckets are upper
// bounds in increasing order; nil means DefBuckets. The bucket layout is
// fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, func() instrument { return newHistogram(help, buckets) }).(*Histogram)
}

// CounterVec returns the named counter family partitioned by labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return r.get(name, func() instrument {
		return &CounterVec{h: help, labels: labels, m: make(map[string]*Counter)}
	}).(*CounterVec)
}

// GaugeVec returns the named gauge family partitioned by labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return r.get(name, func() instrument {
		return &GaugeVec{h: help, labels: labels, m: make(map[string]*Gauge)}
	}).(*GaugeVec)
}

// HistogramVec returns the named histogram family partitioned by labels.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return r.get(name, func() instrument {
		return &HistogramVec{h: help, buckets: buckets, labels: labels, m: make(map[string]*Histogram)}
	}).(*HistogramVec)
}

// families returns (name, instrument) pairs sorted by name under the lock.
func (r *Registry) families() []struct {
	name string
	inst instrument
} {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	insts := make([]instrument, len(names))
	sort.Strings(names)
	for i, n := range names {
		insts[i] = r.insts[n]
	}
	r.mu.Unlock()
	out := make([]struct {
		name string
		inst instrument
	}, len(names))
	for i := range names {
		out[i] = struct {
			name string
			inst instrument
		}{names[i], insts[i]}
	}
	return out
}

// labelBlock renders a sorted, escaped {name="value",...} block. keys and
// values are parallel; an empty key set renders "".
func labelBlock(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, len(keys))
	for i := range keys {
		kvs[i] = kv{keys[i], values[i]}
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
