package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"evorec/internal/core"
	"evorec/internal/delta"
	"evorec/internal/feed"
	"evorec/internal/graphx"
	"evorec/internal/measures"
	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/schema"
	"evorec/internal/semantics"
	"evorec/internal/store"
)

// window is one measured region: its requests and the server-side
// counters at both ends.
type window struct {
	start, end     int64
	recs           []opRec
	reg0, reg1     map[string]float64
	store0, store1 ioCounts
	feed0, feed1   ioCounts
	prov0, prov1   int
	cpu0, cpu1     time.Duration
}

func (e *env) openWindow() *window {
	w := &window{start: int64(time.Since(e.epoch)), reg0: e.st.reg.Snapshot(),
		prov0: e.st.ds.Info().ProvenanceRecords, cpu0: cpuTime()}
	if e.st.cfs != nil {
		w.store0, w.feed0 = e.st.cfs.store.snapshot(), e.st.cfs.feed.snapshot()
	}
	return w
}

func (e *env) closeWindow(w *window, conns ...*conn) {
	w.end = int64(time.Since(e.epoch))
	w.cpu1 = cpuTime()
	w.reg1 = e.st.reg.Snapshot()
	w.prov1 = e.st.ds.Info().ProvenanceRecords
	if e.st.cfs != nil {
		w.store1, w.feed1 = e.st.cfs.store.snapshot(), e.st.cfs.feed.snapshot()
	}
	for _, c := range conns {
		w.recs = append(w.recs, c.recs...)
	}
}

// delta is a registry series' growth over the window.
func (w *window) delta(series string) float64 { return w.reg1[series] - w.reg0[series] }

// outcome collects everything one run measured and checked.
type outcome struct {
	seconds      int // length of the timed region
	setup        []float64
	setupHeap    uint64 // live heap after set-up, bytes
	write, timed *window
	heap0, heap1 heapStats
	slices       []interval // traced run: odd slices are traced
	halted       string     // why the timed region ended before its deadline, if it did
	samples      []sample
	acked        []string

	errs    int // transport errors and non-2xx responses
	lastErr string
	checks  int
	failed  int // failed output checks
	msgs    []string

	finalReg map[string]float64
	traces   []*obs.Trace
	dropped  uint64
	live     []liveProbe
	postRecs []opRec // requests after the timed region (probe, feed check)
	lags     []float64
	lagKind  string
}

func (o *outcome) noteConn(c *conn) {
	o.errs += c.errs
	if c.last != "" {
		o.lastErr = c.last
	}
}

// check counts one output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failed++
		if len(o.msgs) < 10 {
			o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// liveProbe is one warm recommend timed over HTTP and, right after, as a
// direct Dataset.RecommendCtx call with the same inputs on the dataset the
// server wraps.
type liveProbe struct{ http, direct time.Duration }

// probePairs are the distinct pairs of the kept samples, at most n.
func (o *outcome) probePairs(n int) []pair {
	seen := make(map[pair]bool)
	var out []pair
	for _, s := range o.samples {
		if !seen[s.pair] && len(out) < n {
			seen[s.pair] = true
			out = append(out, s.pair)
		}
	}
	return out
}

// finish runs everything after the timed region: the live probe (traced
// run), the feed check, shutdown, the store checks, and the offline layer
// probe with the recommend check.
func (e *env) finish(out *outcome) error {
	pairs := out.probePairs(8)
	if len(pairs) == 0 {
		return fmt.Errorf("no recommend was sampled; last error: %s", out.lastErr)
	}
	c := e.newConn(4096)
	if e.mode != nil {
		e.liveProbe(out, c, pairs)
	}
	e.feedCheck(out, c)
	c.close()
	out.postRecs = c.recs
	out.noteConn(c)
	if e.tail != nil {
		if err := e.pollTraces(); err != nil {
			return err
		}
		out.traces, out.dropped = e.tail.traces, e.tail.dropped
	}
	out.finalReg = e.st.reg.Snapshot()
	if err := e.st.shutdown(); err != nil {
		return fmt.Errorf("closing the service: %w", err)
	}
	return e.storeChecks(out)
}

// liveProbe alternates HTTP and direct recommends on warm pairs. Its HTTP
// requests opt out of tracing so both sides run the untraced path.
func (e *env) liveProbe(out *outcome, c *conn, pairs []pair) {
	const n = 300
	e.mode.Store(false)
	defer e.mode.Store(true)
	for i := 0; i < n; i++ {
		p, u := pairs[i%len(pairs)], e.users[i%len(e.users)]
		if _, ok := c.do(http.MethodGet, recommendURL(e.st.base, p, u, "plain", 3), nil, rRecommend, 0, false); !ok {
			continue
		}
		httpDur := c.recs[len(c.recs)-1].latency()
		prof := parseProfile(u)
		req := core.Request{OlderID: p.older, NewerID: p.newer, K: 3, Strategy: core.Plain}
		var err error
		e.rec.do("service.recommend", func() error {
			_, err = e.st.ds.RecommendCtx(context.Background(), prof, req)
			return err
		})
		out.check(err == nil, "direct recommend %v: %v", p, err)
		s := e.rec.spans[len(e.rec.spans)-1]
		out.live = append(out.live, liveProbe{httpDur, time.Duration(s.End - s.Start)})
	}
}

// feedCheck drains every subscriber's feed over HTTP and checks it against
// evorec_fanout_notified_total. A user's cursors count that user's entries
// from 1, so the last cursor is how many were delivered even after the log
// dropped its oldest entries (logs keep feed.DefaultMaxLog); the polled
// entries must be exactly the gap-free run of cursors up to it. When no log
// was trimmed the polled entries equal the counter.
func (e *env) feedCheck(out *outcome, c *conn) {
	polled, delivered := 0, uint64(0)
	for _, s := range e.subs {
		after, first, last := uint64(0), uint64(0), uint64(0)
		for {
			body, ok := c.do(http.MethodGet, fmt.Sprintf("%s/feed/%s?after=%d&limit=1000", e.st.base, s.ID, after), nil, rFeed, 0, true)
			if !ok {
				break
			}
			var resp struct {
				Next    uint64 `json:"next"`
				Entries []struct {
					Cursor uint64 `json:"cursor"`
				} `json:"entries"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				out.check(false, "feed %s: %v", s.ID, err)
				break
			}
			if len(resp.Entries) == 0 {
				break
			}
			for _, en := range resp.Entries {
				if first == 0 {
					first = en.Cursor
				} else if en.Cursor != last+1 {
					out.check(false, "feed %s: cursor %d follows %d", s.ID, en.Cursor, last)
				}
				last = en.Cursor
				polled++
			}
			after = resp.Next
		}
		delivered += last
		out.check(last == 0 || first == 1 || last-first+1 == feed.DefaultMaxLog,
			"feed %s holds cursors %d..%d: entries lost below the retention bound", s.ID, first, last)
	}
	notified := e.st.reg.Snapshot()["evorec_fanout_notified_total"]
	out.check(float64(delivered) == notified, "feeds delivered %d entries (%d polled), server notified %v", delivered, polled, notified)
	out.check(notified > 0, "no feed entries were delivered")
}

// storeChecks runs after close: store.Verify passes, and every acked
// commit is a version of the reopened store. Then the offline probe.
func (e *env) storeChecks(out *outcome) error {
	rep, err := store.Verify(e.st.storeDir)
	if err != nil {
		return fmt.Errorf("verifying the store: %w", err)
	}
	out.check(rep.OK(), "store.Verify: %v", rep.Problems)
	h, err := store.Open(e.st.storeDir)
	if err != nil {
		return fmt.Errorf("reopening the store: %w", err)
	}
	for _, id := range out.acked {
		out.check(h.Has(id), "acked commit %s is not in the store", id)
	}
	return e.recommendCheck(out, h)
}

// recommendCheck compares every kept recommend response bitwise with the
// map reference recommend.TopK over items the benchmark builds from the
// same pair. In the traced run it also records the offline layer probe.
func (e *env) recommendCheck(out *outcome, h *store.Dataset) error {
	items := make(map[pair][]recommend.Item)
	for _, s := range out.samples {
		its, ok := items[s.pair]
		if !ok {
			older, err := version(h, s.pair.older)
			if err != nil {
				return err
			}
			newer, err := version(h, s.pair.newer)
			if err != nil {
				return err
			}
			its = recommend.BuildItems(measures.NewContext(older, newer), measures.NewRegistry())
			items[s.pair] = its
		}
		want := recommend.TopK(parseProfile(s.user), its, s.k)
		var got struct {
			Recommendations []struct {
				Measure string  `json:"measure"`
				Score   float64 `json:"score"`
			} `json:"recommendations"`
		}
		err := json.Unmarshal(s.body, &got)
		same := err == nil && len(got.Recommendations) == len(want)
		for i := 0; same && i < len(want); i++ {
			g := got.Recommendations[i]
			same = g.Measure == want[i].MeasureID && math.Float64bits(g.Score) == math.Float64bits(want[i].Score)
		}
		out.check(same, "recommend %v for %s: server %s, reference %v", s.pair, s.user.ID, bytes.TrimSpace(s.body), want)
	}
	if e.mode == nil {
		return nil
	}
	return e.offlineProbe(out, h)
}

func version(h *store.Dataset, id string) (*rdf.Version, error) {
	g, err := h.Graph(id)
	if err != nil {
		return nil, fmt.Errorf("materializing %s: %w", id, err)
	}
	return &rdf.Version{ID: id, Graph: g}, nil
}

// offlineProbe records a span around each call into a layer's public
// function, on the workload's own pairs, commit bodies and profiles.
func (e *env) offlineProbe(out *outcome, h *store.Dataset) error {
	r := e.rec
	pairs := out.probePairs(8)
	// Cold materialization: a fresh handle per version, so every call
	// reconstructs from the nearest snapshot plus deltas.
	done := make(map[string]bool)
	for _, p := range pairs {
		for _, id := range []string{p.older, p.newer} {
			if done[id] {
				continue
			}
			done[id] = true
			fresh, err := store.Open(e.st.storeDir)
			if err != nil {
				return err
			}
			if err := r.do("store.materialize", func() error {
				_, err := fresh.Graph(id)
				return err
			}); err != nil {
				return err
			}
		}
	}
	reg := measures.NewRegistry()
	for _, p := range pairs {
		older, err := version(h, p.older)
		if err != nil {
			return err
		}
		newer, err := version(h, p.newer)
		if err != nil {
			return err
		}
		// The program's own calls, as the service's pair build makes them.
		var mctx *measures.Context
		r.do("measures.context", func() error { mctx = measures.NewContext(older, newer); return nil })
		var its []recommend.Item
		r.do("measures.eval", func() error { its = recommend.BuildItems(mctx, reg); return nil })
		// Their parts, each called again on its own: the context's layers
		// per version, and each measure on the context built above.
		for _, v := range []*rdf.Version{older, newer} {
			var sc *schema.Schema
			r.do("schema.extract", func() error { sc = schema.Extract(v.Graph); return nil })
			r.do("semantics.analyze", func() error { semantics.NewAnalyzer(v.Graph, sc); return nil })
			r.do("graphx.build", func() error { graphx.FromAdjacencyIDs(sc.ClassGraphIDs()); return nil })
		}
		r.do("delta.compute", func() error {
			delta.Attribute(delta.ComputeVersions(older, newer))
			return nil
		})
		for _, m := range reg.All() {
			r.do("measures.eval."+m.ID(), func() error { m.Compute(mctx); return nil })
		}
		var idx *recommend.ItemIndex
		r.do("recommend.index_build", func() error { idx = recommend.NewItemIndex(its); return nil })
		for _, u := range e.users {
			prof := parseProfile(u)
			r.do("recommend.topk", func() error { idx.TopK(prof, 3); return nil })
		}
	}
	n := 0
	for _, id := range out.acked {
		if n == 32 {
			break
		}
		n++
		var i int
		if _, err := fmt.Sscanf(id, "v%d", &i); err != nil || i < 1 || i > len(e.in.bodies) {
			return fmt.Errorf("acked commit %q names no generated version", id)
		}
		body := e.in.bodies[i-1]
		if err := r.do("rdf.parse", func() error {
			_, err := rdf.ReadNTriples(bytes.NewReader(body))
			return err
		}); err != nil {
			return fmt.Errorf("parsing commit body %s: %w", id, err)
		}
	}
	return nil
}

// sortedKeys is for deterministic report order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
