package feed

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"

	"evorec/internal/core"
	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
)

// Stats reports what one fan-out did.
type Stats struct {
	// OlderID and NewerID name the version pair.
	OlderID, NewerID string
	// Subscribers is the registry size at fan-out time.
	Subscribers int
	// Affected is how many subscribers the inverted index matched — the
	// only ones scored.
	Affected int
	// Notified is how many notifications were appended across feed logs.
	Notified int
	// Skipped reports that the pair was already fanned out (the ledger
	// makes fan-out idempotent per pair, so a pair invalidated and rebuilt
	// never re-notifies).
	Skipped bool
}

// FanOutIndexedCtx delivers one committed version pair to the standing
// subscriber population: it intersects the indexed items' entity terms with
// the inverted interest index, scores only the matched subscribers (sharded
// across the bounded worker pool, through the same flat-kernel relatedness
// path Engine.Notify uses), and appends the resulting notifications to the
// affected users' feed logs under fresh cursors.
//
// The whole fan-out holds the write lock, so it sees — and delivers to — a
// consistent registry snapshot: a subscriber present when the fan-out starts
// gets its full batch exactly once, however much churn races the commit.
// Cost scales with the affected set, not the pool. Callers holding a bare
// item slice compile the index once with recommend.NewItemIndex; the
// service's commit path passes the engine's pair-cached index instead.
//
// When ctx carries a sampled trace, the fan-out is recorded as a
// "feed.fanout" span nesting "feed.match" (index intersection), one
// "feed.score" span per worker, "feed.append" (log appends) and
// "feed.persist" (durable rewrite). Ledger-skipped fan-outs are not
// traced — they do no work worth a timeline.
func (f *Feed) FanOutIndexedCtx(ctx context.Context, olderID, newerID string, idx *recommend.ItemIndex) (Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := time.Now()
	st := Stats{OlderID: olderID, NewerID: newerID, Subscribers: len(f.subs)}
	key := pairKey(olderID, newerID)
	if _, dup := f.done[key]; dup {
		st.Skipped = true
		f.met.skipped.Inc()
		return st, nil
	}
	ctx, sp := obs.StartSpan(ctx, "feed.fanout")
	_, ms := obs.StartSpan(ctx, "feed.match")
	affected := f.affectedLocked(idx)
	if ms != nil {
		ms.SetAttr("affected", strconv.Itoa(len(affected)))
		ms.SetAttr("subscribers", strconv.Itoa(st.Subscribers))
		ms.End()
	}
	st.Affected = len(affected)
	notes := f.scoreLocked(ctx, affected, idx, olderID, newerID)
	_, as := obs.StartSpan(ctx, "feed.append")
	changed := make([]string, 0, len(affected))
	for i, id := range affected {
		if len(notes[i]) == 0 {
			continue
		}
		lg := f.logs[id]
		if lg == nil {
			lg = &userLog{next: 1}
			f.logs[id] = lg
		}
		for _, n := range notes[i] {
			lg.entries = append(lg.entries, Entry{Cursor: lg.next, Note: n})
			lg.next++
			st.Notified++
		}
		lg.trim(f.maxLog)
		changed = append(changed, id)
	}
	if as != nil {
		as.SetAttr("notified", strconv.Itoa(st.Notified))
		as.End()
	}
	f.done[key] = donePair{older: olderID, newer: newerID}
	// Delivery is complete in memory here; the observation covers scoring
	// and log appends and is recorded even when persistence below degrades,
	// matching what subscribers actually experienced.
	f.met.duration.ObserveSince(start)
	f.met.affected.Observe(float64(st.Affected))
	f.met.notified.Add(float64(st.Notified))
	_, ps := obs.StartSpan(ctx, "feed.persist")
	err := f.persistFanOutLocked(changed)
	if sp != nil { // ps is sp's child: both are sampled or neither is
		ps.SetAttr("users", strconv.Itoa(len(changed)))
		ps.End()
		sp.SetAttr("older", olderID)
		sp.SetAttr("newer", newerID)
		sp.SetAttr("affected", strconv.Itoa(st.Affected))
		sp.SetAttr("notified", strconv.Itoa(st.Notified))
		sp.End()
	}
	return st, err
}

// affectedLocked intersects the index's positively-scored entity terms
// (precomputed and deduplicated at index build) with the inverted
// subscriber index and returns the matched subscriber IDs, sorted. Terms no
// subscriber ever registered an interest in are absent from the feed
// dictionary and cost one failed lookup.
func (f *Feed) affectedLocked(idx *recommend.ItemIndex) []string {
	set := make(map[string]struct{})
	for _, t := range idx.EntityTerms() {
		tid, ok := f.dict.Lookup(t)
		if !ok || tid == rdf.AnyID {
			continue
		}
		for sub := range f.idx[tid] {
			set[sub] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// scoreLocked scores the affected subscribers against the indexed items,
// sharded across the worker pool. The result is index-aligned with
// affected; each slot holds the subscriber's notifications in descending
// relatedness, the exact output of core.UserNotifications — so feed batches
// equal a serial Engine.Notify over the affected set. Each worker scores
// through core.UserNotificationsIndexed, inheriting the kernel's reused
// per-call scratch. Workers only read the registry (the caller holds the
// write lock, so nothing mutates underneath them).
func (f *Feed) scoreLocked(ctx context.Context, affected []string, idx *recommend.ItemIndex, olderID, newerID string) [][]core.Notification {
	out := make([][]core.Notification, len(affected))
	if len(affected) == 0 {
		return out
	}
	workers := f.workers
	if workers > len(affected) {
		workers = len(affected)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, ss := obs.StartSpan(ctx, "feed.score")
			n := 0
			for i := w; i < len(affected); i += workers {
				u := f.subs[affected[i]]
				out[i] = core.UserNotificationsIndexed(u, idx, olderID, newerID, f.threshold, f.k)
				n++
			}
			if ss != nil {
				ss.SetAttr("worker", strconv.Itoa(w))
				ss.SetAttr("scored", strconv.Itoa(n))
				ss.End()
			}
		}(w)
	}
	wg.Wait()
	return out
}
