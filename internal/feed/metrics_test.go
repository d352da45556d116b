package feed_test

import (
	"context"
	"testing"

	"evorec/internal/feed"
	"evorec/internal/obs"
)

// TestMetricsSeries fans one pair out twice — a delivery, then a replay
// the idempotence ledger skips — and asserts every fan-out series against
// the delivery's stats.
func TestMetricsSeries(t *testing.T) {
	w := buildWorld(t)
	reg := obs.NewRegistry()
	f, err := feed.Open(feed.Config{Threshold: 0.1, K: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range w.pool {
		mustSubscribe(t, f, u)
	}
	st, err := f.FanOutIndexedCtx(context.Background(), w.ohID, w.nwID, w.idx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Affected == 0 || st.Affected > 16 || st.Notified == 0 {
		t.Fatalf("fan-out stats %+v: want 1..16 affected and some notified", st)
	}
	if st, err := f.FanOutIndexedCtx(context.Background(), w.ohID, w.nwID, w.idx); err != nil || !st.Skipped {
		t.Fatalf("replayed fan-out = %+v, %v; want skipped", st, err)
	}

	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		"evorec_fanout_seconds_count":            1,
		`evorec_fanout_affected_bucket{le="16"}`: 1,
		"evorec_fanout_affected_sum":             float64(st.Affected),
		"evorec_fanout_notified_total":           float64(st.Notified),
		"evorec_fanout_skipped_total":            1,
	} {
		if got, ok := snap[key]; !ok || got != want {
			t.Errorf("snapshot[%s] = %v (present=%v), want %v", key, got, ok, want)
		}
	}
}

// TestMetricsNilRegistry runs a delivery and a skipped replay on a feed
// without a registry: every instrument is nil and recording is a no-op.
func TestMetricsNilRegistry(t *testing.T) {
	w := buildWorld(t)
	f, err := feed.Open(feed.Config{Threshold: 0.1, K: 3, Metrics: nil})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range w.pool {
		mustSubscribe(t, f, u)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.FanOutIndexedCtx(context.Background(), w.ohID, w.nwID, w.idx); err != nil {
			t.Fatal(err)
		}
	}
}
