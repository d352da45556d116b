package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the W3C Trace Context header traces propagate
// through: an incoming sampled traceparent is joined (its trace ID adopted
// and its span ID recorded as the root's parent), an unsampled one has its
// IDs propagated without recording, and a missing or malformed one causes
// fresh IDs to be minted under the tracer's head-sampling rate. The
// canonical form is echoed on every response.
const TraceparentHeader = "traceparent"

// DefaultTraceRing is the completed-trace ring capacity when
// TracerConfig.RingSize is unset.
const DefaultTraceRing = 256

// TraceID is a 128-bit W3C trace identifier. The zero value is invalid by
// specification and never minted.
type TraceID [16]byte

// SpanID is a 64-bit W3C span identifier. The zero value is invalid.
type SpanID [8]byte

// IsZero reports the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string {
	var b [32]byte
	hexEncode(b[:], t[:])
	return string(b[:])
}

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string {
	var b [16]byte
	hexEncode(b[:], s[:])
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

func hexEncode(dst, src []byte) {
	for i, v := range src {
		dst[2*i] = hexDigits[v>>4]
		dst[2*i+1] = hexDigits[v&0x0f]
	}
}

// hexDecode fills dst from lowercase hex, rejecting uppercase: the W3C
// spec defines the fields as lowercase and forbids case-insensitive
// matching, so "ABCD..." is a malformed header, not an alternate spelling.
func hexDecode(dst []byte, src string) bool {
	for i := range dst {
		hi, ok1 := hexNibble(src[2*i])
		lo, ok2 := hexNibble(src[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<trace-id>-<parent-id>-<flags>"). It returns ok=false for anything
// malformed: wrong length or separators, non-lowercase hex, the forbidden
// version ff, or all-zero trace/span IDs. Versions above 00 are accepted
// with trailing fields ignored, as the spec requires of forward-compatible
// consumers.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, sampled bool, ok bool) {
	// version(2) '-' traceid(32) '-' spanid(16) '-' flags(2) == 55 bytes.
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	var ver [1]byte
	if !hexDecode(ver[:], h[0:2]) || h[0:2] == "ff" {
		return TraceID{}, SpanID{}, false, false
	}
	if len(h) > 55 && (h[0:2] == "00" || h[55] != '-') {
		// Version 00 is exactly 55 bytes; future versions may append more
		// dash-separated fields but never extend the flags field itself.
		return TraceID{}, SpanID{}, false, false
	}
	if !hexDecode(tid[:], h[3:35]) || tid.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	if !hexDecode(parent[:], h[36:52]) || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	var flags [1]byte
	if !hexDecode(flags[:], h[53:55]) {
		return TraceID{}, SpanID{}, false, false
	}
	return tid, parent, flags[0]&0x01 != 0, true
}

// FormatTraceparent renders the canonical version-00 header.
func FormatTraceparent(tid TraceID, sid SpanID, sampled bool) string {
	b := make([]byte, 55)
	b[0], b[1], b[2] = '0', '0', '-'
	hexEncode(b[3:35], tid[:])
	b[35] = '-'
	hexEncode(b[36:52], sid[:])
	b[52], b[53] = '-', '0'
	if sampled {
		b[54] = '1'
	} else {
		b[54] = '0'
	}
	return string(b)
}

// newTraceID mints a random non-zero trace ID. math/rand/v2's global
// generator (chacha8-seeded, lock-free) is deliberate: minting must not
// cost a syscall or an allocation on the request path, and trace IDs need
// uniqueness, not unpredictability.
func newTraceID() TraceID {
	for {
		var t TraceID
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(hi >> (56 - 8*i))
			t[8+i] = byte(lo >> (56 - 8*i))
		}
		if !t.IsZero() {
			return t
		}
	}
}

// newSpanID mints a random non-zero span ID.
func newSpanID() SpanID {
	for {
		var s SpanID
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (56 - 8*i))
		}
		if !s.IsZero() {
			return s
		}
	}
}

// ---------------------------------------------------------------------------
// Spans and traces

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed span as it appears in a trace: children end
// before their parent, so records are in end order and the root is always
// the final element.
type SpanRecord struct {
	Name string `json:"name"`
	// SpanID and ParentID are hex strings; a root span minted locally has
	// no ParentID, a root joined from an inbound traceparent carries the
	// remote caller's span ID (which is not among the trace's own spans).
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// Trace is one completed request timeline, published to the ring when its
// root span ends.
type Trace struct {
	TraceID   string `json:"trace_id"`
	RequestID string `json:"request_id,omitempty"`
	Route     string `json:"route,omitempty"`
	// Seq is the ring's monotonic publication sequence (1-based), assigned
	// when the trace lands in the ring. A scraper that remembers the
	// max_seq of its last poll and passes it back as since_seq reads every
	// trace exactly once (up to ring overwrite).
	Seq        uint64       `json:"seq"`
	Start      time.Time    `json:"start"`
	DurationNS int64        `json:"duration_ns"`
	Spans      []SpanRecord `json:"spans"`
}

// traceData is the mutable state shared by every span of one sampled
// trace; the context carries a *Span, which points here. Completed span
// records accumulate under mu until the root ends and publishes.
type traceData struct {
	tr        *Tracer
	traceID   TraceID
	route     string
	requestID string

	mu    sync.Mutex
	spans []SpanRecord
	done  bool
}

// Span is one live span of a sampled trace. All methods are nil-receiver
// safe — an unsampled or untraced request carries a nil *Span and every
// operation on it is a single branch, which is what keeps the sampled-out
// hot paths at their pre-tracing allocation profile.
type Span struct {
	data   *traceData
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
	root   bool
}

// SetAttr annotates the span. Attributes ride along into the SpanRecord.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// TraceID returns the owning trace's ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.data.traceID
}

// End completes the span, appending its record to the trace. Ending the
// root span publishes the whole trace to the tracer's ring (and the slow
// log when over threshold); a straggler child ending after the root has
// published — possible for fire-and-forget work outliving the request —
// is dropped rather than mutating an exposed trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	rec := SpanRecord{
		Name:       s.name,
		SpanID:     s.id.String(),
		Start:      s.start,
		DurationNS: int64(dur),
		Attrs:      s.attrs,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	d := s.data
	d.mu.Lock()
	if d.done {
		d.mu.Unlock()
		return
	}
	d.spans = append(d.spans, rec)
	if !s.root {
		d.mu.Unlock()
		return
	}
	d.done = true
	spans := d.spans
	d.mu.Unlock()
	d.tr.publish(&Trace{
		TraceID:    d.traceID.String(),
		RequestID:  d.requestID,
		Route:      d.route,
		Start:      s.start,
		DurationNS: int64(dur),
		Spans:      spans,
	})
}

// spanKey is the context key the current span travels under.
type spanKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's span (nil when untraced).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// TraceIDFrom returns the hex trace ID the context's sampled span belongs
// to ("" when untraced), for attributing logs and CommitInfo to a trace.
func TraceIDFrom(ctx context.Context) string {
	if s := SpanFromContext(ctx); s != nil {
		return s.data.traceID.String()
	}
	return ""
}

// StartSpan starts a child of the context's current span. On an untraced
// or sampled-out context it returns (ctx, nil) after one context lookup —
// no allocation — and every method on the nil span is a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{
		data:   parent.data,
		id:     newSpanID(),
		parent: parent.id,
		name:   name,
		start:  time.Now(),
	}
	return ContextWithSpan(ctx, s), s
}

// ---------------------------------------------------------------------------
// Tracer

// TracerConfig parameterizes NewTracer.
type TracerConfig struct {
	// RingSize is the completed-trace ring capacity (DefaultTraceRing when
	// <= 0).
	RingSize int
	// SampleRate is the head-sampling probability for traces minted
	// locally, in [0, 1]; out-of-range values clamp. 0 records no minted
	// traces — inbound traceparents still decide for themselves: a sampled
	// one is always recorded, an unsampled one never is, so an upstream
	// head decision holds across the fleet.
	SampleRate float64
	// SlowThreshold enables a slog warning for every published trace at
	// least this long (0 disables slow-trace logging).
	SlowThreshold time.Duration
	// Logger receives slow-trace warnings; nil disables them.
	Logger *slog.Logger
}

// Tracer is the process-wide tracing substrate: it decides head sampling,
// owns the completed-trace ring behind GET /debug/traces, and emits the
// slow-trace log. A nil *Tracer disables tracing everywhere it is passed;
// all methods are nil-receiver safe.
type Tracer struct {
	ring   traceRing
	rate   float64
	slow   time.Duration
	logger *slog.Logger
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultTraceRing
	}
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	return &Tracer{
		ring:   traceRing{slots: make([]atomic.Pointer[Trace], size)},
		rate:   rate,
		slow:   cfg.SlowThreshold,
		logger: cfg.Logger,
	}
}

// sampleMinted decides head sampling for a locally minted trace.
func (t *Tracer) sampleMinted() bool {
	if t.rate >= 1 {
		return true
	}
	if t.rate <= 0 {
		return false
	}
	return rand.Float64() < t.rate
}

// StartRequest begins the root span for one HTTP request. It joins an
// inbound traceparent when present and valid (honoring its sampled flag in
// both directions), otherwise mints fresh IDs under the head-sampling
// rate. It returns the span-carrying context, the root span (nil when the
// request is not recorded), the canonical traceparent to echo on the
// response, and whether the request is sampled. A nil tracer returns the
// inputs untouched.
func (t *Tracer) StartRequest(ctx context.Context, traceparent, route, requestID string) (context.Context, *Span, string, bool) {
	if t == nil {
		return ctx, nil, "", false
	}
	tid, parent, sampled, ok := ParseTraceparent(traceparent)
	if !ok {
		tid, parent = newTraceID(), SpanID{}
		sampled = t.sampleMinted()
	}
	sid := newSpanID()
	echo := FormatTraceparent(tid, sid, sampled)
	if !sampled {
		return ctx, nil, echo, false
	}
	s := &Span{
		data:   &traceData{tr: t, traceID: tid, route: route, requestID: requestID},
		id:     sid,
		parent: parent,
		name:   route,
		start:  time.Now(),
		root:   true,
	}
	return ContextWithSpan(ctx, s), s, echo, true
}

// StartRoot begins a root span outside any HTTP request (tests, batch
// jobs). It always samples; a nil tracer returns (ctx, nil).
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{
		data:  &traceData{tr: t, traceID: newTraceID(), route: name},
		id:    newSpanID(),
		name:  name,
		start: time.Now(),
		root:  true,
	}
	return ContextWithSpan(ctx, s), s
}

// publish stores a completed trace in the ring and emits the slow-trace
// warning when it crossed the threshold.
func (t *Tracer) publish(tr *Trace) {
	t.ring.put(tr)
	if t.slow > 0 && t.logger != nil && time.Duration(tr.DurationNS) >= t.slow {
		t.logger.Warn("slow trace",
			"trace_id", tr.TraceID,
			"request_id", tr.RequestID,
			"route", tr.Route,
			"duration", time.Duration(tr.DurationNS),
			"spans", len(tr.Spans),
			"top_self_time", strings.Join(topSelfTime(tr.Spans, 3), ", "),
		)
	}
}

// topSelfTime ranks spans by self time — own duration minus the summed
// duration of direct children — and renders the top n as "name=duration".
// Self time is what makes a slow trace diagnosable from the log line alone:
// a root span always dominates total time, but the span that burned the
// wall clock itself is the one to look at.
func topSelfTime(spans []SpanRecord, n int) []string {
	childSum := make(map[string]int64, len(spans))
	for _, s := range spans {
		if s.ParentID != "" {
			childSum[s.ParentID] += s.DurationNS
		}
	}
	type selfSpan struct {
		name string
		self int64
	}
	ranked := make([]selfSpan, 0, len(spans))
	for _, s := range spans {
		self := s.DurationNS - childSum[s.SpanID]
		if self < 0 {
			self = 0 // clock skew between parent and child reads
		}
		ranked = append(ranked, selfSpan{s.Name, self})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].self > ranked[j].self })
	if len(ranked) > n {
		ranked = ranked[:n]
	}
	out := make([]string, len(ranked))
	for i, e := range ranked {
		out[i] = e.name + "=" + time.Duration(e.self).String()
	}
	return out
}

// LastSeq returns the highest ring sequence assigned so far (0 before any
// trace published; nil-safe). TracesHandler reports it as max_seq so a
// scraper can advance its since_seq cursor even when filters hide the
// newest traces.
func (t *Tracer) LastSeq() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.pos.Load()
}

// Traces snapshots the ring, newest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// traceRing is a lock-cheap fixed-size ring of completed traces: one
// atomic counter claims slots, one atomic pointer store publishes a trace,
// and readers walk the slots without blocking writers. A torn read under
// churn can skip or repeat a slot — acceptable for a debug surface, and
// what keeps publish off every request's critical path.
type traceRing struct {
	slots []atomic.Pointer[Trace]
	pos   atomic.Uint64
}

func (r *traceRing) put(t *Trace) {
	seq := r.pos.Add(1)
	t.Seq = seq // publish owns the trace; stamped before it becomes visible
	r.slots[(seq-1)%uint64(len(r.slots))].Store(t)
}

func (r *traceRing) snapshot() []*Trace {
	pos := r.pos.Load()
	n := uint64(len(r.slots))
	out := make([]*Trace, 0, min(pos, n))
	for k := uint64(0); k < n && k < pos; k++ {
		if t := r.slots[(pos-1-k)%n].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// TracesHandler serves GET /debug/traces: the ring's completed traces as
// JSON, newest first. Query parameters filter the view: route= keeps one
// route pattern, min_ms= keeps traces at least that long, limit= caps the
// count, and since_seq= keeps only traces published after that ring
// sequence. The response carries max_seq — the highest sequence assigned so
// far — so a repeated scraper can loop `since_seq = max_seq` and read every
// trace exactly once, regardless of filters (up to ring overwrite under
// sustained overload).
func (t *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traces := t.Traces()
		q := r.URL.Query()
		route := q.Get("route")
		var minDur time.Duration
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, "min_ms must be a number", http.StatusBadRequest)
				return
			}
			minDur = time.Duration(ms * float64(time.Millisecond))
		}
		var sinceSeq uint64
		if v := q.Get("since_seq"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "since_seq must be a non-negative integer", http.StatusBadRequest)
				return
			}
			sinceSeq = n
		}
		limit := len(traces)
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		out := make([]*Trace, 0, min(limit, len(traces)))
		for _, tr := range traces {
			if len(out) >= limit {
				break
			}
			if tr.Seq <= sinceSeq {
				continue
			}
			if route != "" && tr.Route != route {
				continue
			}
			if time.Duration(tr.DurationNS) < minDur {
				continue
			}
			out = append(out, tr)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{ //nolint:errcheck // response committed
			"count":   len(out),
			"max_seq": t.LastSeq(),
			"traces":  out,
		})
	})
}
