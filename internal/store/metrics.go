package store

import "evorec/internal/obs"

// metrics is a dataset's instrument set, bound by SetMetrics. The zero
// value holds nil instruments, each a no-op, so an uninstrumented dataset
// records through the same call sites at the cost of a nil check:
//
//	evorec_wal_append_seconds            whole WAL append incl. fsync
//	evorec_wal_fsync_seconds             the fsync alone
//	evorec_wal_append_bytes_total        record bytes logged
//	evorec_wal_size_bytes                WAL bytes summed over datasets (gauge)
//	evorec_store_checkpoint_seconds{reason}  checkpoint duration by trigger
//	evorec_store_segment_bytes_total     segment bytes written
//	evorec_store_cache_{hits,misses}_total   graph-LRU materialization
type metrics struct {
	walAppend   *obs.Histogram
	walFsync    *obs.Histogram
	walBytes    *obs.Counter
	walSize     *obs.Gauge
	checkpoint  *obs.HistogramVec
	segBytes    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
}

// SetMetrics binds the dataset's instruments on reg (nil disables). Call
// it right after Open, before the dataset serves traffic: the handle is
// not synchronized, so binding mid-flight races the write path.
// Registration is get-or-create, so every dataset bound to one registry
// reports into the same series; the WAL size gauge is their sum.
func (ds *Dataset) SetMetrics(reg *obs.Registry) {
	ds.wal.releaseSize()
	ds.met = metrics{
		walAppend: reg.Histogram("evorec_wal_append_seconds",
			"WAL group-append latency in seconds (encode excluded, fsync included).", obs.DefBuckets),
		walFsync: reg.Histogram("evorec_wal_fsync_seconds",
			"WAL fsync latency in seconds — the durability floor of every commit.", obs.DefBuckets),
		walBytes: reg.Counter("evorec_wal_append_bytes_total",
			"Bytes appended to write-ahead logs."),
		walSize: reg.Gauge("evorec_wal_size_bytes",
			"Current write-ahead log size in bytes, summed over datasets (what their next checkpoints absorb)."),
		checkpoint: reg.HistogramVec("evorec_store_checkpoint_seconds",
			"Store checkpoint duration in seconds, by trigger reason.", obs.DefBuckets, "reason"),
		segBytes: reg.Counter("evorec_store_segment_bytes_total",
			"Segment-file bytes written (snapshots, deltas, dictionary rewrites)."),
		cacheHits: reg.Counter("evorec_store_cache_hits_total",
			"Graph-LRU hits on version materialization."),
		cacheMisses: reg.Counter("evorec_store_cache_misses_total",
			"Graph-LRU misses on version materialization (each one replays segments)."),
	}
	ds.wal.met = ds.met
	ds.wal.reportSize()
}

// Checkpoint trigger reasons, the label of the checkpoint histogram.
const (
	// CheckpointReplay is WAL recovery at open.
	CheckpointReplay = "replay"
	// CheckpointWALBound is the in-AppendBatchCtx WAL size bound.
	CheckpointWALBound = "wal-bound"
	// CheckpointClose is the final checkpoint inside Close.
	CheckpointClose = "close"
	// CheckpointIdle is a background checkpoint taken while the commit
	// queue is quiet (the service's group committer uses it).
	CheckpointIdle = "idle"
	// CheckpointHeal is the recovery checkpoint a HealCtx of a poisoned
	// handle runs to re-establish a durable, WAL-empty state.
	CheckpointHeal = "heal"
)
