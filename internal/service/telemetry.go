package service

import "evorec/internal/obs"

// metrics is a dataset's service-level instrument set, bound onto the
// shared registry (instrument registration is get-or-create, so every
// dataset reports into the same series). A nil Config.Metrics binds nil
// instruments, each a no-op, so call sites record unguarded:
//
//	evorec_commit_batch_size             commits coalesced per group batch
//	evorec_commit_queue_depth            queued commits, summed over datasets
//	evorec_commit_busy_total             ErrCommitBusy rejections (load shed)
//	evorec_commit_degraded_total         commits refused or failed while degraded
//	evorec_build_shed_total              cold pair builds shed by the concurrency gate
//	evorec_checkpoint_failures_total     checkpoint failures by trigger reason
//	evorec_dataset_degraded_total        transitions into the degraded state
//	evorec_dataset_heals_total           degraded datasets restored by the heal probe
//	evorec_context_builds_total          singleflight pair builds actually run
//	evorec_pair_cache_hits_total         requests served from a cached pair
type metrics struct {
	batchSize     *obs.Histogram
	queueDepth    *obs.Gauge
	commitBusy    *obs.Counter
	commitDegr    *obs.Counter
	buildShed     *obs.Counter
	ckptFailures  *obs.CounterVec
	degraded      *obs.Counter
	heals         *obs.Counter
	contextBuilds *obs.Counter
	pairHits      *obs.Counter
}

// newMetrics binds the service instruments on reg (nil reg -> nil
// instruments, fully disabling instrumentation).
func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		batchSize: reg.Histogram("evorec_commit_batch_size",
			"Commits coalesced into one group-commit batch (one WAL fsync each).",
			obs.SizeBuckets),
		queueDepth: reg.Gauge("evorec_commit_queue_depth",
			"Commits currently queued for the group committers, summed over datasets."),
		commitBusy: reg.Counter("evorec_commit_busy_total",
			"Commits rejected with ErrCommitBusy because the queue was saturated (HTTP 503s)."),
		commitDegr: reg.Counter("evorec_commit_degraded_total",
			"Commits refused at enqueue or failed mid-batch because the dataset was degraded (HTTP 503s)."),
		buildShed: reg.Counter("evorec_build_shed_total",
			"Read requests shed with ErrBuildBusy because the cold pair-build gate was saturated (HTTP 503s)."),
		ckptFailures: reg.CounterVec("evorec_checkpoint_failures_total",
			"Checkpoint failures by trigger reason, counted the moment they happen.",
			"reason"),
		degraded: reg.Counter("evorec_dataset_degraded_total",
			"Dataset transitions into the degraded (read-only) state."),
		heals: reg.Counter("evorec_dataset_heals_total",
			"Degraded datasets restored to healthy by the supervised heal probe."),
		contextBuilds: reg.Counter("evorec_context_builds_total",
			"Pair contexts built by singleflight leaders (one per distinct pair, however many clients race)."),
		pairHits: reg.Counter("evorec_pair_cache_hits_total",
			"Requests answered from an already-built pair cache without any build."),
	}
}
