package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/server"
	"evorec/internal/service"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

const datasetName = "bench"

// traceRing holds every trace of one traced slice, so the tail between
// slices loses none (a slice of warm-read publishes a few thousand).
const traceRing = 1 << 15

// stack is the service wired as `evorec serve` wires it: service.New and
// server.NewWithConfig on a loopback listener, the metrics registry on,
// request logs formatted at the default level and discarded, plus the ops
// listener that serves /debug/traces.
type stack struct {
	storeDir, feedDir string

	reg    *obs.Registry
	tracer *obs.Tracer
	cfs    *countFS // nil unless counting
	svc    *service.Service
	ds     *service.Dataset

	api, ops *http.Server
	apiErr   chan error
	opsErr   chan error
	base     string // dataset URL prefix on the API listener
	opsBase  string
	down     bool
}

// bootStack packs vs into dir/store and serves it. traced selects the
// tracer's sample rate, 1 (serve's default) for the traced run and 0
// (`serve -trace-sample 0`) for end-to-end runs, and in the traced run
// routes all disk I/O through a countFS.
func bootStack(dir string, vs *rdf.VersionStore, traced bool) (*stack, error) {
	s := &stack{storeDir: filepath.Join(dir, "store"), feedDir: filepath.Join(dir, "feeds")}
	if _, err := store.Save(s.storeDir, vs, store.Options{Policy: store.Hybrid}); err != nil {
		return nil, fmt.Errorf("packing store: %w", err)
	}
	logger := obs.NewLogger(io.Discard, "info")
	s.reg = obs.NewRegistry()
	rate := 0.0
	if traced {
		rate = 1
	}
	s.tracer = obs.NewTracer(obs.TracerConfig{SampleRate: rate, RingSize: traceRing,
		SlowThreshold: time.Second, Logger: logger})
	var fsys vfs.FS
	if traced {
		s.cfs = newCountFS(s.storeDir, s.feedDir)
		fsys = s.cfs
	}
	s.svc = service.New(service.Config{
		CacheCap: store.DefaultCacheCap, FeedDir: s.feedDir, FS: fsys,
		Metrics: s.reg, Tracer: s.tracer, Logger: logger,
	})
	ds, err := s.svc.Open(datasetName, s.storeDir)
	if err != nil {
		return nil, fmt.Errorf("opening dataset: %w", err)
	}
	s.ds = ds
	apiLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		apiLn.Close()
		s.svc.Close()
		return nil, err
	}
	s.api = &http.Server{
		Handler: server.NewWithConfig(s.svc, server.Config{
			Metrics: s.reg, Logger: logger, Tracer: s.tracer,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s.ops = &http.Server{
		Handler:           obs.OpsMux(obs.OpsConfig{Registry: s.reg, Tracer: s.tracer, Ready: s.svc.Ready}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.apiErr = make(chan error, 1)
	s.opsErr = make(chan error, 1)
	go func() { s.apiErr <- s.api.Serve(apiLn) }()
	go func() { s.opsErr <- s.ops.Serve(opsLn) }()
	s.base = "http://" + apiLn.Addr().String() + "/v1/datasets/" + datasetName
	s.opsBase = "http://" + opsLn.Addr().String()
	return s, nil
}

// shutdown stops both listeners, waits for their serve loops, and closes
// the service (draining commits, checkpointing the store, flushing feeds).
func (s *stack) shutdown() error {
	if s.down {
		return nil
	}
	s.down = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(s.api.Shutdown(ctx), s.ops.Shutdown(ctx))
	for _, ch := range []chan error{s.apiErr, s.opsErr} {
		if serr := <-ch; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	return errors.Join(err, s.svc.Close())
}
