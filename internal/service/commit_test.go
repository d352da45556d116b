package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"evorec/internal/rdf"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

func ntriple(s, o string) string {
	return fmt.Sprintf("<http://example.org/%s> <http://www.w3.org/2000/01/rdf-schema#seeAlso> <http://example.org/%s> .\n", s, o)
}

// seedMemStore saves a one-version chain onto fsys and returns its dir.
func seedMemStore(t *testing.T, fsys vfs.FS) string {
	t.Helper()
	return seedMemStoreAt(t, fsys, "data/ds")
}

// seedMemStoreAt saves a one-version chain onto fsys at dir and returns it.
func seedMemStoreAt(t *testing.T, fsys vfs.FS, dir string) string {
	t.Helper()
	g := rdf.NewGraph()
	if err := rdf.ReadNTriplesInto(g, strings.NewReader(ntriple("a", "b"))); err != nil {
		t.Fatal(err)
	}
	vs := rdf.NewVersionStore()
	if err := vs.Add(&rdf.Version{ID: "v1", Graph: g}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveFS(fsys, dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestServiceGroupCommitConcurrent hammers one disk-backed dataset with
// concurrent committers and verifies every acknowledged commit survives a
// Close + reopen: the group committer may batch them arbitrarily, but each
// must land exactly once, and readers must see a consistent chain.
func TestServiceGroupCommitConcurrent(t *testing.T) {
	fsys := vfs.NewMemFS()
	dir := seedMemStore(t, fsys)
	svc := New(Config{FS: fsys})
	d, err := svc.Open("ds", dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 5
	var wg sync.WaitGroup
	errs := make([]error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-c%d", w, i)
				body := ntriple(id, "payload")
				_, err := d.CommitCtx(context.Background(), id, strings.NewReader(body))
				errs[w*perWorker+i] = err
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d failed: %v", i, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := store.OpenFS(fsys, dir)
	if err != nil {
		t.Fatalf("reopen after concurrent commits: %v", err)
	}
	if got, want := back.Len(), 1+workers*perWorker; got != want {
		t.Fatalf("reopened chain has %d versions, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("w%d-c%d", w, i)
			if !back.Has(id) {
				t.Fatalf("acknowledged commit %q missing after reopen", id)
			}
			if _, err := back.Graph(id); err != nil {
				t.Fatalf("materializing %q: %v", id, err)
			}
		}
	}
	// A clean Close checkpoints: the WAL must be truncated.
	if n := back.WALSize(); n != 0 {
		t.Fatalf("WAL holds %d bytes after reopen (reopen checkpoints)", n)
	}
	// And a committed duplicate stays rejected after recovery.
	if _, err := back.AppendBatchCtx(context.Background(), []*rdf.Version{{ID: "w0-c0", Graph: rdf.NewGraphWithDict(back.Dict())}}); err == nil {
		t.Fatal("duplicate version ID accepted after reopen")
	}
}

// TestServiceCommitBusy saturates a 1-slot commit queue while the drain
// goroutine is wedged on the dataset lock and verifies overflow commits
// fail fast with ErrCommitBusy instead of queueing unboundedly.
func TestServiceCommitBusy(t *testing.T) {
	fsys := vfs.NewMemFS()
	dir := seedMemStore(t, fsys)
	svc := New(Config{FS: fsys, CommitQueue: 1})
	d, err := svc.Open("ds", dir)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the committer: hold the dataset write lock so the drain
	// goroutine blocks inside commitBatch while the queue refills.
	d.mu.Lock()
	release := sync.OnceFunc(d.mu.Unlock)
	defer release()

	results := make(chan error, 16)
	commit := func(i int) {
		id := fmt.Sprintf("busy-%d", i)
		_, err := d.CommitCtx(context.Background(), id, strings.NewReader(ntriple(id, "x")))
		results <- err
	}
	go commit(0) // dequeued by the (now wedged) drain goroutine
	sawBusy := false
	deadline := time.After(5 * time.Second)
	for i := 1; !sawBusy; i++ {
		select {
		case <-deadline:
			t.Fatal("queue never saturated")
		default:
		}
		go commit(i)
		select {
		case err := <-results:
			if errors.Is(err, ErrCommitBusy) {
				sawBusy = true
			} else if err != nil {
				t.Fatalf("unexpected commit error: %v", err)
			}
		case <-time.After(50 * time.Millisecond):
			// This commit was admitted to the queue and is waiting on the
			// wedged committer; keep pushing until one bounces.
		}
	}
	release()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// After close, commits are refused with the shutdown sentinel.
	if _, err := d.CommitCtx(context.Background(), "late", strings.NewReader(ntriple("late", "x"))); !errors.Is(err, ErrDatasetClosed) {
		t.Fatalf("commit after close = %v, want ErrDatasetClosed", err)
	}
}

// TestServiceCommitCloseRace races a commit storm against Service.Close and
// holds the shutdown path to exactly-once semantics: every CommitCtx call
// must resolve — within a bound, to an ack or to a shedding sentinel — and the
// reopened store must contain every acked commit and none of the refused
// ones. A hang here is the commit queue and the close drain deadlocking; a
// ghost version is a refusal whose WAL record escaped anyway.
func TestServiceCommitCloseRace(t *testing.T) {
	fsys := vfs.NewMemFS()
	dir := seedMemStore(t, fsys)
	svc := New(Config{FS: fsys})
	d, err := svc.Open("ds", dir)
	if err != nil {
		t.Fatal(err)
	}
	// One guaranteed pre-close ack, so the survival half of the assertion
	// is never vacuous on a fast Close.
	if _, err := d.CommitCtx(context.Background(), "pre", strings.NewReader(ntriple("pre", "x"))); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 6, 8
	type outcome struct {
		id  string
		err error
	}
	results := make(chan outcome, workers*perWorker)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("race-w%d-c%d", w, i)
				_, err := d.CommitCtx(context.Background(), id, strings.NewReader(ntriple(id, "x")))
				results <- outcome{id, err}
			}
		}(w)
	}
	close(start)
	closeErr := make(chan error, 1)
	go func() { closeErr <- svc.Close() }()

	settled := make(chan struct{})
	go func() { wg.Wait(); close(settled) }()
	select {
	case <-settled:
	case <-time.After(30 * time.Second):
		t.Fatal("commits hung while racing Close")
	}
	if err := <-closeErr; err != nil {
		t.Fatalf("close during commit storm: %v", err)
	}
	close(results)
	acked := map[string]bool{"pre": true}
	refused := map[string]bool{}
	for r := range results {
		switch {
		case r.err == nil:
			acked[r.id] = true
		case errors.Is(r.err, ErrDatasetClosed), errors.Is(r.err, ErrCommitBusy):
			refused[r.id] = true
		default:
			t.Fatalf("commit %s resolved to an unexpected error: %v", r.id, r.err)
		}
	}
	if len(acked)-1+len(refused) != workers*perWorker {
		t.Fatalf("resolved %d acked + %d refused, want %d total",
			len(acked)-1, len(refused), workers*perWorker)
	}

	back, err := store.OpenFS(fsys, dir)
	if err != nil {
		t.Fatalf("reopen after racing close: %v", err)
	}
	for id := range acked {
		if !back.Has(id) {
			t.Errorf("acknowledged commit %q lost across Close", id)
		}
	}
	for id := range refused {
		if back.Has(id) {
			t.Errorf("refused commit %q landed anyway (ghost write)", id)
		}
	}
}
