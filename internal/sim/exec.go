package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
)

// ---------------------------------------------------------------------------
// HTTP plumbing

// do issues one request and tallies it under (route, method, class) — the
// same label set the server's evorec_http_requests_total carries, which is
// what the final conservation pass equates. Transport errors (no status
// line) are counted separately: the server may or may not have seen the
// request, so every exclusive-use law degrades to advisory when any occur.
func (r *runner) do(method, path string, q url.Values, body []byte, route string) (int, []byte, time.Duration, error) {
	u := r.cfg.BaseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	dur := time.Since(start)
	if err != nil {
		r.transport.Add(1)
		r.viol.addf("transport", "%s %s: %v", method, path, err)
		return 0, nil, dur, err
	}
	defer resp.Body.Close() //nolint:errcheck
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		r.transport.Add(1)
		r.viol.addf("transport", "%s %s: reading body: %v", method, path, err)
		return 0, nil, dur, err
	}
	r.routes.add(route, method, statusClass(resp.StatusCode))
	return resp.StatusCode, b, dur, nil
}

func statusClass(status int) string { return fmt.Sprintf("%dxx", status/100) }

// expect is one invariant check: it counts toward the checks total and
// records a violation when the condition fails.
func (r *runner) expect(cond bool, cat, format string, args ...any) bool {
	r.checks.Add(1)
	if !cond {
		r.viol.addf(cat, format, args...)
	}
	return cond
}

func parseJSON(b []byte, v any) error { return json.Unmarshal(b, v) }

// ---------------------------------------------------------------------------
// Response shapes (mirrors of internal/server's JSON)

type feedStatsResp struct {
	Subscribers int  `json:"subscribers"`
	Affected    int  `json:"affected"`
	Notified    int  `json:"notified"`
	Skipped     bool `json:"skipped"`
}

type commitResp struct {
	ID        string         `json:"id"`
	Triples   int            `json:"triples"`
	Kind      string         `json:"kind"`
	Feed      *feedStatsResp `json:"feed"`
	FeedError string         `json:"feed_error"`
}

type subscribeResp struct {
	ID    string `json:"id"`
	Terms int    `json:"terms"`
}

type recEntryResp struct {
	Rank    int     `json:"rank"`
	Measure string  `json:"measure"`
	Score   float64 `json:"score"`
}

type recommendResp struct {
	User            string         `json:"user"`
	Strategy        string         `json:"strategy"`
	Recommendations []recEntryResp `json:"recommendations"`
}

type groupResp struct {
	Group           string         `json:"group"`
	Members         int            `json:"members"`
	Recommendations []recEntryResp `json:"recommendations"`
}

type notifyResp struct {
	Threshold     float64 `json:"threshold"`
	Notifications []struct {
		User        string  `json:"user"`
		Measure     string  `json:"measure"`
		Relatedness float64 `json:"relatedness"`
	} `json:"notifications"`
}

type feedResp struct {
	User    string `json:"user"`
	After   uint64 `json:"after"`
	Next    uint64 `json:"next"`
	Entries []struct {
		Cursor      uint64  `json:"cursor"`
		Older       string  `json:"older"`
		Newer       string  `json:"newer"`
		Measure     string  `json:"measure"`
		Relatedness float64 `json:"relatedness"`
	} `json:"entries"`
}

type infoResp struct {
	Name        string   `json:"name"`
	Backed      bool     `json:"backed"`
	Versions    []string `json:"versions"`
	Subscribers int      `json:"subscribers"`
	FeedPairs   int      `json:"feed_pairs"`
}

// ---------------------------------------------------------------------------
// Operation execution

func (r *runner) exec(op *Op) {
	d := r.ds[op.Dataset]
	if d == nil {
		r.viol.addf("harness", "op %d references unknown dataset %s", op.Seq, op.Dataset)
		return
	}
	switch op.Kind {
	case OpCreate:
		r.execCreate(op, d)
	case OpCommit:
		r.execCommit(op, d)
	case OpSubscribe, OpUpdate:
		r.execSubscribe(op, d)
	case OpUnsubscribe:
		r.execUnsubscribe(op, d)
	case OpRecommend:
		r.execRecommend(op, d)
	case OpGroupRecommend:
		r.execGroup(op, d)
	case OpNotify:
		r.execNotify(op, d)
	case OpPoll:
		r.execPoll(op, d)
	}
}

func (r *runner) execCreate(op *Op, d *dsState) {
	status, body, dur, err := r.do("POST", "/v1/datasets/"+op.Dataset, nil, nil, routeDataset)
	if err == nil {
		r.lat.record(op.Kind, dur)
	}
	if !r.expect(err == nil && status == http.StatusCreated,
		"status", "create %s = %d (err %v), want 201", op.Dataset, status, err) {
		// Dependent ops are generated after the create, so they would wait on
		// the channel forever; mark the dataset broken and release them.
		d.broken = true
		close(d.created)
		return
	}
	var info infoResp
	if r.expect(parseJSON(body, &info) == nil, "shape", "create %s: bad JSON", op.Dataset) {
		r.expect(info.Name == op.Dataset && !info.Backed && len(info.Versions) == 0,
			"shape", "create %s: unexpected info %+v", op.Dataset, info)
	}
	close(d.created)
}

func (r *runner) execCommit(op *Op, d *dsState) {
	if !r.waitCreated(d) || d.broken {
		return
	}
	// Register the commit's fan-out pair as pending BEFORE the POST: the
	// server appends feed entries before the commit ack resolves, so a
	// concurrent poll may legitimately see the pair first. Commits per
	// dataset are serialized by affinity dispatch, so lastAcked here is the
	// exact chain tip the server will pair the new version with.
	d.mu.Lock()
	prev := d.lastAcked
	d.pendVer[op.VersionID] = true
	var pk entryKey
	if prev != "" {
		pk = pairKey(prev, op.VersionID)
		d.pendPair[pk] = true
	}
	d.mu.Unlock()

	status, body, dur, err := r.do("POST",
		"/v1/datasets/"+op.Dataset+"/versions/"+op.VersionID, nil, op.Body, routeCommit)
	if err != nil {
		// Indeterminate: the server may have applied the commit. The version
		// and pair stay pending forever, downgrading every check that
		// touches them to race-tolerant.
		d.mu.Lock()
		d.commitsFail++
		d.mu.Unlock()
		return
	}
	r.lat.record(op.Kind, dur)

	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case status == http.StatusCreated:
		delete(d.pendVer, op.VersionID)
		d.acked[op.VersionID] = true
		d.versions = append(d.versions, op.VersionID)
		d.lastAcked = op.VersionID
		d.commits2xx++
		if !d.backed {
			d.memCommits++
		}
		if prev != "" {
			delete(d.pendPair, pk)
			d.ackedPair[pk] = true
		}
		var resp commitResp
		if !r.expect(parseJSON(body, &resp) == nil, "shape", "commit %s/%s: bad JSON", op.Dataset, op.VersionID) {
			return
		}
		r.expect(resp.ID == op.VersionID && resp.Triples > 0,
			"shape", "commit %s/%s: ack id=%q triples=%d", op.Dataset, op.VersionID, resp.ID, resp.Triples)
		r.expect(resp.FeedError == "", "feed_error",
			"commit %s/%s: degraded fan-out: %s", op.Dataset, op.VersionID, resp.FeedError)
		if prev == "" {
			// First version of the chain: nothing to pair, no fan-out ran.
			r.expect(resp.Feed == nil, "fanout",
				"commit %s/%s: fan-out reported for a first version: %+v", op.Dataset, op.VersionID, resp.Feed)
		} else if f := resp.Feed; f != nil {
			// Fan-out ran. With zero registered subscribers at apply time the
			// server skips it entirely (Feed stays nil) — and subscriptions
			// race commits, so a nil Feed on a non-first commit is legitimate
			// and simply not counted.
			r.expect(!f.Skipped, "fanout",
				"commit %s/%s: fan-out ledger-skipped for a fresh pair", op.Dataset, op.VersionID)
			r.expect(f.Affected <= f.Subscribers && f.Notified >= 0, "fanout",
				"commit %s/%s: affected %d > subscribers %d", op.Dataset, op.VersionID, f.Affected, f.Subscribers)
			if f.Skipped {
				d.fanSkipped++
			} else {
				d.fanouts++
				d.notified += int64(f.Notified)
			}
		}
		r.ingestShadowLocked(op, d)

	case status == http.StatusServiceUnavailable:
		// Rejected without landing: whether the queue shed it, the degraded
		// gate refused it, or the WAL fault struck mid-batch, the version
		// never exists server-side — later ops referencing it must 404.
		// The error body says which server counter this 503 reconciles
		// with (mid-commit wraps the degraded sentinel, so test it first).
		delete(d.pendVer, op.VersionID)
		delete(d.pendPair, pk)
		d.commits503++
		var eb struct {
			Error string `json:"error"`
		}
		switch err := parseJSON(body, &eb); {
		case err == nil && strings.Contains(eb.Error, "mid-commit"):
			d.commitsMid503++
		case err == nil && strings.Contains(eb.Error, "degraded"):
			d.commitsDegraded503++
		default:
			d.commitsBusy503++
		}

	default:
		delete(d.pendVer, op.VersionID)
		delete(d.pendPair, pk)
		r.expect(false, "status", "commit %s/%s = %d, want 201 or 503",
			op.Dataset, op.VersionID, status)
	}
}

// ingestShadowLocked feeds an acked commit body into the dataset's
// reference engine (caller holds d.mu). The shadow parses the exact bytes
// the server parsed, so sampled recommendations can be compared bitwise.
func (r *runner) ingestShadowLocked(op *Op, d *dsState) {
	if d.refEng == nil {
		return
	}
	if d.refDict == nil {
		d.refDict = rdf.NewDict()
	}
	g := rdf.NewGraphWithDict(d.refDict)
	if err := rdf.ReadNTriplesInto(g, bytes.NewReader(op.Body)); err != nil {
		r.viol.addf("harness", "shadow parse %s/%s: %v", op.Dataset, op.VersionID, err)
		d.refEng = nil // parity is meaningless from here on
		return
	}
	if err := d.refEng.Ingest(&rdf.Version{ID: op.VersionID, Graph: g}); err != nil {
		r.viol.addf("harness", "shadow ingest %s/%s: %v", op.Dataset, op.VersionID, err)
		d.refEng = nil
	}
}

func (r *runner) execSubscribe(op *Op, d *dsState) {
	if !r.waitCreated(d) || d.broken {
		return
	}
	// Subscriber ops for one (dataset, user) are serialized by affinity
	// dispatch, so the shadow's active flag is exact at send time.
	d.mu.Lock()
	wasActive := d.user(op.User).active
	d.mu.Unlock()
	body, _ := json.Marshal(map[string]string{"interests": op.Interests})
	status, respBody, dur, err := r.do("PUT",
		"/v1/datasets/"+op.Dataset+"/subscribers/"+op.User, nil, body, routeSub)
	if err != nil {
		return
	}
	r.lat.record(op.Kind, dur)
	want := http.StatusCreated
	if wasActive {
		want = http.StatusOK
	}
	if !r.expect(status == want, "status",
		"subscribe %s/%s = %d, want %d (active=%v)", op.Dataset, op.User, status, want, wasActive) {
		return
	}
	var resp subscribeResp
	if r.expect(parseJSON(respBody, &resp) == nil, "shape", "subscribe %s/%s: bad JSON", op.Dataset, op.User) {
		r.expect(resp.ID == op.User && resp.Terms >= 1, "shape",
			"subscribe %s/%s: ack id=%q terms=%d", op.Dataset, op.User, resp.ID, resp.Terms)
	}
	d.mu.Lock()
	u := d.user(op.User)
	u.active, u.everSub = true, true
	d.mu.Unlock()
}

func (r *runner) execUnsubscribe(op *Op, d *dsState) {
	if !r.waitCreated(d) || d.broken {
		return
	}
	d.mu.Lock()
	wasActive := d.user(op.User).active
	d.mu.Unlock()
	status, _, dur, err := r.do("DELETE",
		"/v1/datasets/"+op.Dataset+"/subscribers/"+op.User, nil, nil, routeSub)
	if err != nil {
		return
	}
	r.lat.record(op.Kind, dur)
	want := http.StatusOK
	if !wasActive {
		want = http.StatusNotFound
	}
	if r.expect(status == want, "status",
		"unsubscribe %s/%s = %d, want %d (active=%v)", op.Dataset, op.User, status, want, wasActive) &&
		status == http.StatusOK {
		d.mu.Lock()
		d.user(op.User).active = false
		d.mu.Unlock()
	}
}

// pairState classifies a version pair against the shadow at one instant.
type pairState struct {
	bothAcked bool // both versions acked — the server must serve the pair
	bothKnown bool // both versions acked or pending — 200 is plausible
}

func (d *dsState) pairStateLocked(older, newer string) pairState {
	known := func(v string) bool { return d.acked[v] || d.pendVer[v] }
	return pairState{
		bothAcked: d.acked[older] && d.acked[newer],
		bothKnown: known(older) && known(newer),
	}
}

// checkPairStatus applies the race-tolerant status rule for read ops over a
// version pair: a 200 requires both versions known (acked or in flight) at
// response time; a 404 requires that the pair was NOT fully acked at send
// time. Anything between is a commit racing the read, which is legitimate.
func (r *runner) checkPairStatus(what string, op *Op, d *dsState, status int, before pairState) bool {
	switch status {
	case http.StatusOK:
		d.mu.Lock()
		after := d.pairStateLocked(op.Older, op.Newer)
		d.mu.Unlock()
		r.expect(after.bothKnown, "status",
			"%s %s %s..%s = 200 but a version was never committed", what, op.Dataset, op.Older, op.Newer)
		return after.bothKnown
	case http.StatusNotFound:
		r.expect(!before.bothAcked, "status",
			"%s %s %s..%s = 404 but both versions were acked", what, op.Dataset, op.Older, op.Newer)
		return false
	case http.StatusServiceUnavailable:
		// Load shed: the cold pair-build gate refused the build. Legitimate
		// under pressure — tallied and reconciled against the server's
		// rejection counter; degraded datasets still serve reads, so this
		// never means the write fault leaked into the read path.
		r.reads503.Add(1)
		return false
	default:
		r.expect(false, "status", "%s %s %s..%s = %d, want 200, 404 or 503",
			what, op.Dataset, op.Older, op.Newer, status)
		return false
	}
}

func (r *runner) execRecommend(op *Op, d *dsState) {
	if !r.waitCreated(d) || d.broken {
		return
	}
	d.mu.Lock()
	before := d.pairStateLocked(op.Older, op.Newer)
	d.mu.Unlock()
	q := url.Values{}
	q.Set("older", op.Older)
	q.Set("newer", op.Newer)
	q.Set("k", fmt.Sprint(op.K))
	q.Set("strategy", op.Strategy)
	q.Set("user_id", op.User)
	q.Set("interests", op.Interests)
	status, body, dur, err := r.do("GET", "/v1/datasets/"+op.Dataset+"/recommend", q, nil, routeRec)
	if err != nil {
		return
	}
	r.lat.record(op.Kind, dur)
	if !r.checkPairStatus("recommend", op, d, status, before) {
		return
	}
	var resp recommendResp
	if !r.expect(parseJSON(body, &resp) == nil, "shape", "recommend %s: bad JSON", op.Dataset) {
		return
	}
	r.expect(resp.User == op.User && resp.Strategy == op.Strategy, "shape",
		"recommend %s: echo user=%q strategy=%q", op.Dataset, resp.User, resp.Strategy)
	r.checkRanking(op, resp.Recommendations, op.Strategy == "plain")
	if op.Parity && before.bothAcked {
		r.checkParity(op, d, resp.Recommendations)
	}
}

// checkRanking verifies the universal list invariants: bounded by k, ranks
// 1..n, and (for score-ranked strategies) non-increasing scores.
func (r *runner) checkRanking(op *Op, recs []recEntryResp, scoreOrdered bool) {
	r.expect(len(recs) <= op.K, "ranking",
		"%s %s: %d recommendations > k=%d", op.Kind, op.Dataset, len(recs), op.K)
	for i, rec := range recs {
		r.expect(rec.Rank == i+1, "ranking",
			"%s %s: rank[%d] = %d", op.Kind, op.Dataset, i, rec.Rank)
		if scoreOrdered && i > 0 {
			r.expect(recs[i-1].Score >= rec.Score, "ranking",
				"%s %s: scores not monotone at rank %d (%g < %g)",
				op.Kind, op.Dataset, i+1, recs[i-1].Score, rec.Score)
		}
	}
}

// checkParity recomputes a sampled plain recommendation with the map
// reference recommend.TopK over the reference engine's items — same profile
// grammar, same bytes, none of the item index the server scores through —
// and compares measure IDs and scores bitwise. Go's float64 JSON round-trip
// is exact, so any drift is a real indexed-vs-reference divergence.
func (r *runner) checkParity(op *Op, d *dsState, got []recEntryResp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.refEng == nil || !d.acked[op.Older] || !d.acked[op.Newer] {
		return
	}
	u, err := profile.ParseInterests(op.User, op.Interests)
	if err != nil {
		r.viol.addf("harness", "parity %s: parsing interests: %v", op.Dataset, err)
		return
	}
	items, err := d.refEng.Items(op.Older, op.Newer)
	if err != nil {
		r.viol.addf("harness", "parity %s %s..%s: reference engine: %v", op.Dataset, op.Older, op.Newer, err)
		return
	}
	want := recommend.TopK(u, items, op.K)
	r.parityChecked.Add(1)
	if !r.expect(len(want) == len(got), "parity",
		"recommend %s %s..%s k=%d: %d results, reference says %d",
		op.Dataset, op.Older, op.Newer, op.K, len(got), len(want)) {
		return
	}
	for i := range want {
		r.expect(want[i].MeasureID == got[i].Measure && want[i].Score == got[i].Score, "parity",
			"recommend %s %s..%s rank %d: got %s=%v, reference %s=%v",
			op.Dataset, op.Older, op.Newer, i+1,
			got[i].Measure, got[i].Score, want[i].MeasureID, want[i].Score)
	}
}

func (r *runner) execGroup(op *Op, d *dsState) {
	if !r.waitCreated(d) || d.broken {
		return
	}
	d.mu.Lock()
	before := d.pairStateLocked(op.Older, op.Newer)
	d.mu.Unlock()
	q := url.Values{}
	q.Set("older", op.Older)
	q.Set("newer", op.Newer)
	q.Set("k", fmt.Sprint(op.K))
	q.Set("agg", op.Agg)
	for _, m := range op.Members {
		q.Add("member", m)
	}
	status, body, dur, err := r.do("GET", "/v1/datasets/"+op.Dataset+"/recommend/group", q, nil, routeGroup)
	if err != nil {
		return
	}
	r.lat.record(op.Kind, dur)
	if !r.checkPairStatus("group-recommend", op, d, status, before) {
		return
	}
	var resp groupResp
	if !r.expect(parseJSON(body, &resp) == nil, "shape", "group %s: bad JSON", op.Dataset) {
		return
	}
	r.expect(resp.Members == len(op.Members), "shape",
		"group %s: %d members echoed, sent %d", op.Dataset, resp.Members, len(op.Members))
	r.checkRanking(op, resp.Recommendations, true)
}

func (r *runner) execNotify(op *Op, d *dsState) {
	if !r.waitCreated(d) || d.broken {
		return
	}
	d.mu.Lock()
	before := d.pairStateLocked(op.Older, op.Newer)
	d.mu.Unlock()
	q := url.Values{}
	q.Set("older", op.Older)
	q.Set("newer", op.Newer)
	q.Set("k", fmt.Sprint(op.K))
	q.Set("threshold", fmt.Sprint(op.Threshold))
	users := make(map[string]int, len(op.Members))
	for _, m := range op.Members {
		q.Add("user", m)
		if id, _, ok := strings.Cut(m, ":"); ok {
			users[id] = 0
		}
	}
	status, body, dur, err := r.do("GET", "/v1/datasets/"+op.Dataset+"/notify", q, nil, routeNotify)
	if err != nil {
		return
	}
	r.lat.record(op.Kind, dur)
	if !r.checkPairStatus("notify", op, d, status, before) {
		return
	}
	var resp notifyResp
	if !r.expect(parseJSON(body, &resp) == nil, "shape", "notify %s: bad JSON", op.Dataset) {
		return
	}
	for _, n := range resp.Notifications {
		if _, ok := users[n.User]; !r.expect(ok, "notify",
			"notify %s: notification for %q, not in the requested pool", op.Dataset, n.User) {
			continue
		}
		users[n.User]++
		r.expect(n.Relatedness >= op.Threshold, "notify",
			"notify %s: relatedness %g below threshold %g for %s", op.Dataset, n.Relatedness, op.Threshold, n.User)
	}
	for id, n := range users {
		r.expect(n <= op.K, "notify",
			"notify %s: %d notifications for %s > k=%d", op.Dataset, n, id, op.K)
	}
}

func (r *runner) execPoll(op *Op, d *dsState) {
	if !r.waitCreated(d) || d.broken {
		return
	}
	r.pollOnce(d, op.User, false)
}

// pollOnce performs one feed poll with a cursor ack for the user,
// returning how many entries arrived. Poll ops share the subscriber
// affinity key, so the shadow's cursor and everSub flag are exact.
func (r *runner) pollOnce(d *dsState, user string, drain bool) (int, bool) {
	if d.broken {
		return 0, false
	}
	d.mu.Lock()
	u := d.user(user)
	after, everSub, active, drained := u.cursor, u.everSub, u.active, u.entries
	d.mu.Unlock()
	limit := 100
	if drain {
		limit = 500
	}
	q := url.Values{}
	q.Set("after", fmt.Sprint(after))
	q.Set("limit", fmt.Sprint(limit))
	status, body, dur, err := r.do("GET", "/v1/datasets/"+d.name+"/feed/"+user, q, nil, routeFeed)
	if err != nil {
		return 0, false
	}
	if !drain {
		r.lat.record(OpPoll, dur)
	}
	// Poll status semantics: an active subscriber always has a feed (200); a
	// user who never subscribed has none (404 — the negative half of the
	// delivery invariant). Between the two — subscribed once, unsubscribed
	// since — the log is retained only if a delivery ever happened, and the
	// shadow knows only a lower bound on deliveries (what it has drained):
	// 404 is a violation only when entries were already drained.
	switch {
	case !everSub:
		if !r.expect(status == http.StatusNotFound, "status",
			"poll %s/%s = %d, want 404 (never subscribed)", d.name, user, status) {
			return 0, false
		}
		return 0, false
	case !active && status == http.StatusNotFound:
		r.expect(drained == 0, "status",
			"poll %s/%s = 404 after draining %d entries (log must be retained)", d.name, user, drained)
		return 0, false
	}
	if !r.expect(status == http.StatusOK, "status",
		"poll %s/%s = %d, want 200 (active=%v)", d.name, user, status, active) {
		return 0, false
	}
	var resp feedResp
	if !r.expect(parseJSON(body, &resp) == nil, "shape", "poll %s/%s: bad JSON", d.name, user) {
		return 0, false
	}
	r.expect(resp.User == user && resp.After == after, "shape",
		"poll %s/%s: echo user=%q after=%d (sent %d)", d.name, user, resp.User, resp.After, after)
	// Cursor monotonicity: next never regresses, entries strictly increase
	// past the acked cursor, and next lands on the last entry returned.
	r.expect(resp.Next >= after, "cursor",
		"poll %s/%s: next %d regressed below acked %d", d.name, user, resp.Next, after)
	last := after
	d.mu.Lock()
	for _, e := range resp.Entries {
		r.expect(e.Cursor > last, "cursor",
			"poll %s/%s: cursor %d not past %d", d.name, user, e.Cursor, last)
		last = e.Cursor
		key := entryKey{older: e.Older, newer: e.Newer, measure: e.Measure}
		r.expect(!u.seen[key], "delivery",
			"poll %s/%s: duplicate delivery of %s..%s %s", d.name, user, e.Older, e.Newer, e.Measure)
		u.seen[key] = true
		pk := pairKey(e.Older, e.Newer)
		r.expect(d.ackedPair[pk] || d.pendPair[pk], "delivery",
			"poll %s/%s: entry for pair %s..%s that was never committed", d.name, user, e.Older, e.Newer)
		r.expect(e.Measure != "", "shape", "poll %s/%s: empty measure at cursor %d", d.name, user, e.Cursor)
	}
	if len(resp.Entries) > 0 {
		r.expect(resp.Next == last, "cursor",
			"poll %s/%s: next %d != last cursor %d", d.name, user, resp.Next, last)
	}
	u.cursor = resp.Next
	u.entries += len(resp.Entries)
	d.mu.Unlock()
	return len(resp.Entries), true
}

// execInspect cross-checks GET /v1/datasets/{name} against the shadow at
// the end of the run (single-threaded: no racing ops). The strict equality
// checks only apply when every commit resolved determinately.
func (r *runner) execInspect(d *dsState) {
	if d.broken {
		return
	}
	status, body, _, err := r.do("GET", "/v1/datasets/"+d.name, nil, nil, routeDataset)
	if err != nil {
		return
	}
	if !r.expect(status == http.StatusOK, "status", "inspect %s = %d, want 200", d.name, status) {
		return
	}
	var resp infoResp
	if !r.expect(parseJSON(body, &resp) == nil, "shape", "inspect %s: bad JSON", d.name) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r.expect(resp.Name == d.name && resp.Backed == d.backed, "shape",
		"inspect %s: name=%q backed=%v", d.name, resp.Name, resp.Backed)
	if d.commitsFail > 0 || len(d.pendVer) > 0 {
		return // indeterminate commits: the chain is only comparable loosely
	}
	chainEq := len(resp.Versions) == len(d.versions)
	if chainEq {
		for i := range d.versions {
			chainEq = chainEq && resp.Versions[i] == d.versions[i]
		}
	}
	r.expect(chainEq, "inspect",
		"inspect %s: version chain %v, shadow %v", d.name, resp.Versions, d.versions)
	active := 0
	for _, u := range d.users {
		if u.active {
			active++
		}
	}
	r.expect(resp.Subscribers == active, "inspect",
		"inspect %s: %d subscribers, shadow %d", d.name, resp.Subscribers, active)
	r.expect(resp.FeedPairs == d.fanouts, "inspect",
		"inspect %s: %d feed pairs, shadow fanned out %d", d.name, resp.FeedPairs, d.fanouts)
}
