package service

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"evorec/internal/obs"
	"evorec/internal/store/vfs"
)

// stuckCheckpointFS fails every SyncPath under dir. Commits to a store
// there still log and acknowledge (the WAL syncs through its file handle),
// but each checkpoint fails at its first segment sync, so the WAL keeps
// its bytes.
type stuckCheckpointFS struct {
	vfs.FS
	dir string
}

func (f stuckCheckpointFS) SyncPath(path string) error {
	if strings.HasPrefix(path, f.dir+"/") {
		return errors.New("segment sync refused")
	}
	return f.FS.SyncPath(path)
}

// waitFor polls cond until it holds, failing the test after a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// queueLen reads the committer's queue length and whether its drain
// goroutine runs.
func queueLen(d *Dataset) (n int, running bool) {
	d.committer.mu.Lock()
	defer d.committer.mu.Unlock()
	return len(d.committer.queue), d.committer.running
}

// expositionLine matches one valid text-format sample or comment line.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [^ ]+)$`)

// TestSharedGaugesSumOverDatasets pins the WAL size and commit queue
// gauges as service-wide sums over two disk-backed datasets on one
// registry. With both datasets' write locks held, each drain goroutine
// takes one commit and stalls while more queue behind it: the queue gauge
// must equal the two queue lengths' sum. Once released, a's idle
// checkpoint fails and its WAL keeps its bytes, then b commits and
// checkpoints its WAL to empty: the WAL gauge must still count a's bytes.
// Closing both datasets withdraws everything. The exposition of every
// family the store, feed and service bound stays line-valid text format.
func TestSharedGaugesSumOverDatasets(t *testing.T) {
	mem := vfs.NewMemFS()
	dirA := seedMemStoreAt(t, mem, "data/a")
	dirB := seedMemStoreAt(t, mem, "data/b")
	reg := obs.NewRegistry()
	svc := New(Config{
		FS:             stuckCheckpointFS{FS: mem, dir: dirA},
		Metrics:        reg,
		HealBackoff:    time.Hour,
		HealBackoffMax: time.Hour,
	})
	defer svc.Close() //nolint:errcheck // double close is fine
	a, err := svc.Open("a", dirA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Open("b", dirB)
	if err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) float64 { return reg.Snapshot()[name] }

	var wg sync.WaitGroup
	commit := func(d *Dataset, id string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.CommitCtx(context.Background(), id, strings.NewReader(ntriple(id, "x"))); err != nil {
				t.Errorf("commit %s to %s: %v", id, d.name, err)
			}
		}()
	}
	// queueBehindStall commits ids to d while its write lock is held: the
	// drain goroutine takes the first and blocks; the rest stay queued.
	queueBehindStall := func(d *Dataset, ids ...string) {
		commit(d, ids[0])
		waitFor(t, d.name+" drain to take its first commit", func() bool {
			n, running := queueLen(d)
			return running && n == 0
		})
		for _, id := range ids[1:] {
			commit(d, id)
		}
		waitFor(t, d.name+" queue to fill", func() bool {
			n, _ := queueLen(d)
			return n == len(ids)-1
		})
	}
	a.mu.Lock()
	b.mu.Lock()
	queueBehindStall(a, "v2", "v3", "v4")
	queueBehindStall(b, "v2", "v3")
	if got := gauge("evorec_commit_queue_depth"); got != 3 {
		t.Errorf("queue gauge = %v with 2+1 commits queued, want 3", got)
	}

	// a drains first and fails its idle checkpoint; b drains after it.
	a.mu.Unlock()
	waitFor(t, "a to degrade", a.degraded)
	b.mu.Unlock()
	wg.Wait()
	waitFor(t, "b to drain", func() bool {
		_, running := queueLen(b)
		return !running
	})
	a.mu.RLock()
	walA := a.sds.WALSize()
	a.mu.RUnlock()
	b.mu.RLock()
	walB := b.sds.WALSize()
	b.mu.RUnlock()
	if walA == 0 || walB != 0 {
		t.Fatalf("WAL sizes a=%d b=%d, want a's bytes kept and b's checkpointed", walA, walB)
	}
	if got := gauge("evorec_wal_size_bytes"); got != float64(walA+walB) {
		t.Errorf("WAL gauge = %v, want the sum %d", got, walA+walB)
	}
	if got := gauge("evorec_commit_queue_depth"); got != 0 {
		t.Errorf("queue gauge = %v with both queues drained, want 0", got)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := gauge("evorec_wal_size_bytes"); got != 0 {
		t.Errorf("WAL gauge after close = %v, want 0", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
}
