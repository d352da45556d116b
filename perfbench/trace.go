package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"evorec/internal/obs"
)

// span is one benchmark-side span: a call the benchmark made into a
// layer's public function.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// recorder keeps benchmark-side spans in memory until the run writes them
// out. It is used from one goroutine at a time.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// do records fn as a span named name and returns fn's error.
func (r *recorder) do(name string, fn func() error) error {
	start := int64(time.Since(r.epoch))
	err := fn()
	r.spans = append(r.spans, span{Name: name, Start: start, End: int64(time.Since(r.epoch))})
	return err
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime is d minus the part of [lo, hi) its children cover. Children of
// a program span may overlap (fan-out scoring runs on a worker pool), so
// coverage is the union of their intervals.
func selfTime(lo, hi int64, kids []interval) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered, cur := int64(0), lo
	for _, k := range kids {
		a, b := max(k.lo, cur), min(k.hi, hi)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return time.Duration(hi - lo - covered)
}

// durations returns each benchmark span name's total durations.
func (r *recorder) durations() map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// traceTail reads the server's completed traces from GET /debug/traces,
// resuming from the last ring sequence it saw.
type traceTail struct {
	url     string
	since   uint64
	traces  []*obs.Trace
	dropped uint64 // traces overwritten in the ring before they were read
}

func (t *traceTail) poll(hc *http.Client) error {
	resp, err := hc.Get(fmt.Sprintf("%s/debug/traces?since_seq=%d", t.url, t.since))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/traces: status %d", resp.StatusCode)
	}
	var body struct {
		MaxSeq uint64       `json:"max_seq"`
		Traces []*obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("decoding /debug/traces: %w", err)
	}
	// The ring lists newest first; keep publication order.
	sort.Slice(body.Traces, func(i, j int) bool { return body.Traces[i].Seq < body.Traces[j].Seq })
	if n := uint64(len(body.Traces)); body.MaxSeq > t.since+n {
		t.dropped += body.MaxSeq - t.since - n
	}
	t.traces = append(t.traces, body.Traces...)
	t.since = body.MaxSeq
	return nil
}

// programSelf returns, per span name, the self times of the server's spans,
// and per request ID the duration of its root span (the server's latency
// for that request).
func programSelf(traces []*obs.Trace) (map[string][]time.Duration, map[string]time.Duration) {
	self := make(map[string][]time.Duration)
	roots := make(map[string]time.Duration)
	for _, tr := range traces {
		kids := make(map[string][]interval)
		for _, s := range tr.Spans {
			if s.ParentID != "" {
				lo := s.Start.UnixNano()
				kids[s.ParentID] = append(kids[s.ParentID], interval{lo, lo + s.DurationNS})
			}
		}
		for _, s := range tr.Spans {
			lo := s.Start.UnixNano()
			self[s.Name] = append(self[s.Name], selfTime(lo, lo+s.DurationNS, kids[s.SpanID]))
		}
		if tr.RequestID != "" {
			roots[tr.RequestID] = time.Duration(tr.DurationNS)
		}
	}
	return self, roots
}

// writeSpans writes every span of the traced run as JSON lines: the
// benchmark's own, then the server's traces.
func writeSpans(path string, rec *recorder, traces []*obs.Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rec.spans {
		if err := enc.Encode(struct {
			Source string `json:"source"`
			span
		}{"bench", s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, tr := range traces {
		if err := enc.Encode(struct {
			Source string `json:"source"`
			*obs.Trace
		}{"server", tr}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
