// Package service is the concurrent serving layer over the processing model:
// a long-lived registry of named datasets, each wrapping one core.Engine
// behind a reader/writer lock with per-pair singleflight, so that many
// clients can ask for recommendations against an evolving knowledge base at
// once — the paper's "millions of users" scenario (ROADMAP north star) —
// while commits append new versions at runtime.
//
// The concurrency model per dataset is:
//
//   - The expensive step (building a pair's measures.Context and items) runs
//     under the dataset's write lock, and a per-pair singleflight elects one
//     goroutine to do it; every concurrent request for the same pair waits
//     for that one build instead of racing the engine caches.
//   - Once a pair is cached (core.Engine.HasItems), recommendation,
//     notification and inspection requests run concurrently under the read
//     lock: they only read the caches and append to the internally
//     synchronized provenance store.
//   - Commits (new versions) and cache-capacity changes take the write lock;
//     a commit persists through the binary store's append path when the
//     dataset is disk-backed and invalidates only the pairs that involve the
//     committed version ID.
//
// Datasets come in two flavors: disk-backed (opened from an internal/store
// directory, versions materialize lazily through the store's LRU) and
// in-memory (registered from a version store or created empty and fed
// entirely through CommitCtx).
package service

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"evorec/internal/feed"
	"evorec/internal/measures"
	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// Sentinel errors the HTTP layer maps to statuses.
var (
	// ErrUnknownDataset reports a name with no registered dataset.
	ErrUnknownDataset = errors.New("service: unknown dataset")
	// ErrUnknownVersion reports a version ID absent from a dataset.
	ErrUnknownVersion = errors.New("service: unknown version")
	// ErrDuplicateVersion reports a commit reusing an existing version ID.
	ErrDuplicateVersion = errors.New("service: version already exists")
	// ErrDuplicateDataset reports a registration reusing a dataset name.
	ErrDuplicateDataset = errors.New("service: dataset already registered")
	// ErrUnknownSubscriber reports a subscriber ID with no registration and
	// no retained feed log (re-exported from the feed subsystem so HTTP
	// handlers map one sentinel set).
	ErrUnknownSubscriber = feed.ErrUnknownSubscriber
	// ErrCommitBusy reports a commit refused because the dataset's group-
	// commit queue is saturated; the HTTP layer maps it to 503 with a
	// Retry-After so clients back off instead of piling on.
	ErrCommitBusy = errors.New("service: commit queue saturated")
	// ErrDatasetClosed reports an operation against a dataset whose service
	// is shutting down.
	ErrDatasetClosed = errors.New("service: dataset closed")
	// ErrDegraded reports a commit refused because the dataset's write path
	// is failing: the dataset serves reads from its materialized versions
	// while a supervised probe retries recovery with backoff. The HTTP
	// layer maps it to 503 + Retry-After, like ErrCommitBusy.
	ErrDegraded = errors.New("service: dataset degraded, commits suspended while the write path heals")
	// ErrBuildBusy reports a read shed because the cold pair-build
	// concurrency gate is saturated; also a 503 + Retry-After. Warm pairs
	// keep serving — only requests that would trigger a new build shed.
	ErrBuildBusy = errors.New("service: cold pair-build capacity saturated")
)

// Config parameterizes a Service. The zero value is usable.
type Config struct {
	// Registry supplies the measure set every dataset's engine evaluates;
	// nil means measures.NewRegistry(). It must not be mutated once the
	// service is serving.
	Registry *measures.Registry
	// Agent names the service in provenance records; empty means "evorec".
	Agent string
	// Clock stamps provenance records; nil means time.Now.
	Clock func() time.Time
	// CacheCap overrides the store LRU capacity of disk-backed datasets
	// (minimum 1); zero keeps store.DefaultCacheCap.
	CacheCap int
	// FeedDir roots feed persistence: each disk-backed dataset's subscriber
	// registry and per-user feed logs live under FeedDir/<dataset name>.
	// Empty keeps every feed in memory. In-memory datasets always keep
	// their feeds in memory — their version chains don't survive a
	// restart, so a persisted fan-out ledger would wrongly suppress
	// delivery for recycled version IDs.
	FeedDir string
	// FeedWorkers bounds each dataset's fan-out worker pool; zero keeps
	// feed.DefaultWorkers.
	FeedWorkers int
	// FeedThreshold is the minimum relatedness notified on commit; zero
	// keeps feed.DefaultThreshold.
	FeedThreshold float64
	// FeedK caps notifications per subscriber per commit; zero keeps
	// feed.DefaultK.
	FeedK int
	// FS is the filesystem disk-backed datasets and feeds persist through;
	// nil means the real filesystem. The crash-recovery tests inject a
	// fault-injecting in-memory filesystem here.
	FS vfs.FS
	// CommitQueue bounds each dataset's group-commit queue; beyond it
	// CommitCtx fails fast with ErrCommitBusy. Zero keeps DefaultCommitQueue.
	CommitQueue int
	// BuildConcurrency bounds concurrent cold pair builds across the whole
	// service; beyond it reads needing a build shed with ErrBuildBusy
	// instead of queueing unboundedly behind the write lock. Zero keeps
	// DefaultBuildConcurrency; negative disables the gate.
	BuildConcurrency int
	// HealBackoff is the degraded-state probe's initial retry delay; zero
	// keeps DefaultHealBackoff. Each failed probe doubles the delay (with
	// full jitter) up to HealBackoffMax.
	HealBackoff time.Duration
	// HealBackoffMax caps the probe's backoff; zero keeps
	// DefaultHealBackoffMax.
	HealBackoffMax time.Duration
	// Metrics is the observability registry every dataset reports into:
	// store WAL/checkpoint/cache series, feed fan-out series, and the
	// service's own group-commit and pair-cache series (see DESIGN.md
	// §11). Nil disables instrumentation entirely — every instrument is
	// nil and records nothing.
	Metrics *obs.Registry
	// Tracer, when non-nil, mints root spans for the background heal
	// probe, which runs outside any request. Request work needs no
	// tracer here: pair builds, commit queue waits, WAL appends and
	// fan-outs become child spans of whatever sampled trace the caller's
	// context carries (see DESIGN.md §12), and an untraced context keeps
	// every path at its pre-tracing cost.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives commit-triggered fan-out outcome
	// lines carrying the originating request and trace IDs, so a feed
	// delivery can be attributed to the commit request that caused it.
	Logger *slog.Logger
}

// fs resolves the configured filesystem, defaulting to the real one.
func (c Config) fs() vfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return vfs.OS{}
}

// Service is the multi-dataset registry. All methods are safe for
// concurrent use.
type Service struct {
	cfg Config

	// ready tracks readiness blockers (WAL replays, checkpoints, shutdown
	// drains) for /readyz; datasets hold a pointer into it.
	ready readyState

	// buildGate bounds concurrent cold pair builds service-wide (nil =
	// unbounded); datasets share it because builds contend on the same
	// CPUs whatever dataset they serve.
	buildGate chan struct{}

	mu       sync.RWMutex
	datasets map[string]*Dataset
}

// New returns an empty service.
func New(cfg Config) *Service {
	s := &Service{cfg: cfg, datasets: make(map[string]*Dataset)}
	s.ready.bind(cfg.Metrics)
	if n := cfg.BuildConcurrency; n >= 0 {
		if n == 0 {
			n = DefaultBuildConcurrency
		}
		s.buildGate = make(chan struct{}, n)
	}
	return s
}

// register validates the name and cache capacity and installs the dataset.
func (s *Service) register(name string, build func() (*Dataset, error)) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("service: dataset name must not be empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateDataset, name)
	}
	d, err := build()
	if err != nil {
		return nil, err
	}
	s.datasets[name] = d
	return d, nil
}

// Open registers a disk-backed dataset from a binary store directory.
// Versions materialize lazily on first request; commits append to the
// directory.
func (s *Service) Open(name, dir string) (*Dataset, error) {
	return s.register(name, func() (*Dataset, error) {
		// OpenFS replays whatever the WAL holds before the handle is usable;
		// /readyz reports not-ready for the duration so traffic is not routed
		// to a process still recovering.
		s.ready.begin(blockReplay)
		sds, err := store.OpenFS(s.cfg.fs(), dir)
		s.ready.end(blockReplay)
		if err != nil {
			return nil, err
		}
		if s.cfg.CacheCap != 0 {
			if err := sds.SetCacheCap(s.cfg.CacheCap); err != nil {
				return nil, err
			}
		}
		return newDataset(name, dir, sds, nil, s.cfg, &s.ready, s.buildGate)
	})
}

// Create registers an empty in-memory dataset, to be fed through CommitCtx.
func (s *Service) Create(name string) (*Dataset, error) {
	return s.register(name, func() (*Dataset, error) {
		return newDataset(name, "", nil, nil, s.cfg, &s.ready, s.buildGate)
	})
}

// Add registers an in-memory dataset over an existing version chain.
func (s *Service) Add(name string, vs *rdf.VersionStore) (*Dataset, error) {
	return s.register(name, func() (*Dataset, error) {
		return newDataset(name, "", nil, vs, s.cfg, &s.ready, s.buildGate)
	})
}

// Get returns the named dataset.
func (s *Service) Get(name string) (*Dataset, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return d, nil
}

// Names returns the registered dataset names, sorted.
func (s *Service) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Infos returns every dataset's Info, ordered by name.
func (s *Service) Infos() []Info {
	names := s.Names()
	out := make([]Info, 0, len(names))
	for _, name := range names {
		d, err := s.Get(name)
		if err != nil {
			continue // racing a concurrent deregistration; none exists yet
		}
		out = append(out, d.Info())
	}
	return out
}

// FlushFeeds persists every dataset's feed state (subscribers, logs,
// manifests). Graceful shutdown calls it after draining in-flight
// requests; in-memory feeds no-op.
func (s *Service) FlushFeeds() error {
	var firstErr error
	for _, name := range s.Names() {
		d, err := s.Get(name)
		if err != nil {
			continue
		}
		if err := d.feed.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("flushing feed of dataset %q: %w", name, err)
		}
	}
	return firstErr
}

// Close shuts every dataset down: commit queues drain, backing stores
// checkpoint (absorbing their WALs) and close, feeds flush. The service
// must not be used afterwards; late commits fail with ErrDatasetClosed.
func (s *Service) Close() error {
	return s.closeAll(nil)
}

// closeAll is the shared shutdown body; onClosed, when non-nil, is called
// after each dataset finishes (CloseTimeout tracks progress through it).
func (s *Service) closeAll(onClosed func(name string)) error {
	// The drain is a readiness blocker: /readyz flips to 503 the moment
	// shutdown starts, before the listener stops accepting, so rolling
	// deploys stop routing to a process that is busy flushing.
	s.ready.begin(blockDrain)
	defer s.ready.end(blockDrain)
	var firstErr error
	for _, name := range s.Names() {
		d, err := s.Get(name)
		if err != nil {
			continue
		}
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("closing dataset %q: %w", name, err)
		}
		if onClosed != nil {
			onClosed(name)
		}
	}
	return firstErr
}

// CloseTimeout is Close bounded by a deadline. When the timeout fires
// before every dataset has drained, it returns the names still closing —
// those are force-closed in the sense that the process is about to exit
// under them; their acknowledged commits are WAL-durable regardless, and
// the next open replays them. A timeout of zero or less is an unbounded
// Close.
func (s *Service) CloseTimeout(timeout time.Duration) (abandoned []string, err error) {
	if timeout <= 0 {
		return nil, s.Close()
	}
	var mu sync.Mutex
	pending := make(map[string]bool)
	for _, name := range s.Names() {
		pending[name] = true
	}
	done := make(chan error, 1)
	go func() {
		done <- s.closeAll(func(name string) {
			mu.Lock()
			delete(pending, name)
			mu.Unlock()
		})
	}()
	select {
	case err := <-done:
		return nil, err
	case <-time.After(timeout):
		mu.Lock()
		for name := range pending {
			abandoned = append(abandoned, name)
		}
		mu.Unlock()
		sort.Strings(abandoned)
		return abandoned, fmt.Errorf("service: close timed out after %s with %d datasets still draining",
			timeout, len(abandoned))
	}
}
