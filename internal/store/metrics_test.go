package store_test

import (
	"context"
	"testing"

	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// openMemStore saves vs's first version to a MemFS store directory and
// opens a handle on it.
func openMemStore(t *testing.T, vs *rdf.VersionStore) *store.Dataset {
	t.Helper()
	mem := vfs.NewMemFS()
	seed := rdf.NewVersionStore()
	if err := seed.Add(vs.At(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveFS(mem, "data", seed, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.OpenFS(mem, "data")
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestMetricsSeries drives a MemFS dataset through two WAL appends, a
// checkpoint under each of two reasons and graph-LRU probes, and asserts
// the value of every store series against what the operations did: the
// WAL, checkpoint, segment and cache families the dashboards key on.
func TestMetricsSeries(t *testing.T) {
	vs := testChain(t, 3) // v1..v4
	ds := openMemStore(t, vs)
	reg := obs.NewRegistry()
	ds.SetMetrics(reg)
	ctx := context.Background()
	check := func(key string, want float64) {
		t.Helper()
		if got, ok := reg.Snapshot()[key]; !ok || got != want {
			t.Errorf("snapshot[%s] = %v (present=%v), want %v", key, got, ok, want)
		}
	}

	// Batch one: v2 and v3 behind one fsync. Encoding v2's delta probes the
	// LRU for v1 (a miss: nothing is cached after open).
	var segBytes, walBytes float64
	entries, err := ds.AppendBatchCtx(ctx, []*rdf.Version{vs.At(1), vs.At(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		segBytes += float64(e.Bytes)
	}
	walBytes += float64(ds.WALSize())
	check("evorec_wal_size_bytes", float64(ds.WALSize()))
	if err := ds.CheckpointReasonCtx(context.Background(), store.CheckpointIdle); err != nil {
		t.Fatal(err)
	}
	segBytes += float64(ds.Manifest().Dict.Bytes)
	check("evorec_wal_size_bytes", 0)

	// Batch two: v4, whose delta probes for v3 (a miss again: appends of
	// foreign-dict graphs are not cached).
	entries, err = ds.AppendBatchCtx(ctx, []*rdf.Version{vs.At(3)})
	if err != nil {
		t.Fatal(err)
	}
	segBytes += float64(entries[0].Bytes)
	walBytes += float64(ds.WALSize())
	if err := ds.CheckpointReasonCtx(context.Background(), store.CheckpointWALBound); err != nil {
		t.Fatal(err)
	}
	segBytes += float64(ds.Manifest().Dict.Bytes)

	// Both materialized graphs now sit in the LRU: two hits.
	for _, id := range []string{"v1", "v3"} {
		if _, err := ds.Graph(id); err != nil {
			t.Fatal(err)
		}
	}

	check("evorec_wal_append_seconds_count", 2)
	check("evorec_wal_fsync_seconds_count", 2)
	check("evorec_wal_append_bytes_total", walBytes)
	check("evorec_wal_size_bytes", 0)
	check(`evorec_store_checkpoint_seconds_count{reason="idle"}`, 1)
	check(`evorec_store_checkpoint_seconds_bucket{le="+Inf",reason="wal-bound"}`, 1)
	check("evorec_store_segment_bytes_total", segBytes)
	check("evorec_store_cache_hits_total", 2)
	check("evorec_store_cache_misses_total", 2)
	if hits, misses := ds.CacheStats(); hits != 2 || misses != 2 {
		t.Errorf("CacheStats = %d hits, %d misses; want 2, 2", hits, misses)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsNilRegistry runs the same write and read path with a nil
// registry bound: every instrument is nil and recording is a no-op.
func TestMetricsNilRegistry(t *testing.T) {
	vs := testChain(t, 2)
	ds := openMemStore(t, vs)
	ds.SetMetrics(nil)
	if _, err := ds.AppendBatchCtx(context.Background(), []*rdf.Version{vs.At(1), vs.At(2)}); err != nil {
		t.Fatal(err)
	}
	if err := ds.CheckpointReasonCtx(context.Background(), store.CheckpointIdle); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Graph("v2"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}
