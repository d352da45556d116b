package service_test

// Crash-recovery property test: one scripted session — subscriber updates,
// commits, commit-triggered feed fan-out — replayed with a fault injected
// at every filesystem operation the session performs. After each simulated
// crash (unsynced state dropped, the process gone), reopening must recover
// exactly the acknowledged prefix: every acked commit and subscription is
// present, nothing outside the attempted set appears, no version is
// partial, no feed batch is re-deliverable, and the recovered store accepts
// new writes.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/service"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

const crashFeedDir = "feeds"

// crashAck records what the workload's client observed succeed — the
// contract recovery must honor.
type crashAck struct {
	commits []string    // version IDs whose CommitCtx returned nil
	subs    []string    // subscriber IDs whose Subscribe returned nil
	fanouts [][2]string // pairs whose fan-out reported no persistence error
}

// seedCrashStore writes the v1-only chain durably (no faults yet) and
// returns the store directory.
func seedCrashStore(t testing.TB, fsys vfs.FS, vs *rdf.VersionStore) string {
	t.Helper()
	dir := "data/kb"
	base := rdf.NewVersionStore()
	if err := base.Add(vs.At(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveFS(fsys, dir, base, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runCrashWorkload drives the scripted session against a (possibly
// faulting) filesystem. Errors are expected — they are the crash — so the
// workload records acks and keeps going; once the FaultFS is past its
// injection point every further operation fails fast.
func runCrashWorkload(t testing.TB, fsys vfs.FS, storeDir string, bodies map[string][]byte, workload *crashScript) crashAck {
	t.Helper()
	var ack crashAck
	svc := service.New(service.Config{FS: fsys, FeedDir: crashFeedDir, FeedThreshold: 0.01})
	defer svc.Close() //nolint:errcheck // crash path; Close errors are the point
	d, err := svc.Open("kb", storeDir)
	if err != nil {
		return ack // crashed during open: nothing acknowledged
	}
	commit := func(id string) {
		info, err := d.CommitCtx(context.Background(), id, bytes.NewReader(bodies[id]))
		if err != nil {
			return
		}
		ack.commits = append(ack.commits, id)
		if info.Feed != nil && !info.Feed.Skipped && info.FeedError == "" {
			ack.fanouts = append(ack.fanouts, [2]string{info.Feed.OlderID, info.Feed.NewerID})
		}
	}
	for i, id := range workload.commits {
		if i < len(workload.pool) {
			if _, _, err := d.Subscribe(workload.pool[i]); err == nil {
				ack.subs = append(ack.subs, workload.pool[i].ID)
			}
		}
		commit(id)
	}
	return ack
}

type crashScript struct {
	commits []string
	pool    []*profile.Profile
}

func TestCrashRecoveryEveryInjectionPoint(t *testing.T) {
	vs := testChain(t, 3) // v1..v4; v4 is committed only after recovery
	ids := vs.IDs()
	pool := testProfiles(t, vs, 2)
	bodies := make(map[string][]byte, len(ids))
	graphs := make(map[string]*rdf.Graph, len(ids))
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		body := ntBody(t, v.Graph)
		buf := make([]byte, body.Len())
		if _, err := body.Read(buf); err != nil {
			t.Fatal(err)
		}
		bodies[v.ID] = buf
		graphs[v.ID] = v.Graph
	}
	script := &crashScript{commits: ids[1:3], pool: pool} // v2, v3 with a subscribe before each
	chain := ids[:3]                                      // the longest chain the workload can build

	// Counting run: no fault, measure how many fs operations one clean
	// session performs — the injection points to enumerate.
	mem := vfs.NewMemFS()
	storeDir := seedCrashStore(t, mem, vs)
	counter := vfs.NewFaultFS(mem, 0, vfs.FaultError)
	cleanAck := runCrashWorkload(t, counter, storeDir, bodies, script)
	total := counter.Ops()
	if len(cleanAck.commits) != 2 || len(cleanAck.subs) != 2 || len(cleanAck.fanouts) != 2 {
		t.Fatalf("clean run acked %+v, want 2 commits, 2 subs, 2 fanouts", cleanAck)
	}
	if total < 30 {
		t.Fatalf("clean session issued only %d fs ops; the workload no longer exercises the write paths", total)
	}
	t.Logf("enumerating %d injection points", total)

	faults := []vfs.Fault{vfs.FaultError, vfs.FaultTornWrite, vfs.FaultShortWrite}
	faultName := map[vfs.Fault]string{
		vfs.FaultError: "error", vfs.FaultTornWrite: "torn", vfs.FaultShortWrite: "short",
	}
	for failAt := 1; failAt <= total; failAt++ {
		fault := faults[failAt%len(faults)]
		t.Run(fmt.Sprintf("op%03d_%s", failAt, faultName[fault]), func(t *testing.T) {
			mem := vfs.NewMemFS()
			storeDir := seedCrashStore(t, mem, vs)
			ffs := vfs.NewFaultFS(mem, failAt, fault)
			ack := runCrashWorkload(t, ffs, storeDir, bodies, script)
			mem.Crash() // drop everything not fsynced: the process is gone

			// --- Store invariants -------------------------------------------
			back, err := store.OpenFS(mem, storeDir)
			if err != nil {
				t.Fatalf("recovery Open failed: %v (acked %+v)", err, ack)
			}
			got := back.IDs()
			if len(got) > len(chain) {
				t.Fatalf("recovered chain %v longer than attempted %v", got, chain)
			}
			for i, id := range got {
				if id != chain[i] {
					t.Fatalf("recovered chain %v is not a prefix of attempted %v", got, chain)
				}
			}
			for _, id := range ack.commits {
				if !back.Has(id) {
					t.Fatalf("acknowledged commit %q lost by recovery (chain %v)", id, got)
				}
			}
			for _, id := range got {
				g, err := back.Graph(id)
				if err != nil {
					t.Fatalf("recovered version %q does not materialize: %v", id, err)
				}
				if !sameGraph(g, graphs[id]) {
					t.Fatalf("recovered version %q diverged from the committed graph", id)
				}
			}
			if err := back.Close(); err != nil {
				t.Fatalf("closing recovered store: %v", err)
			}

			// --- Feed invariants --------------------------------------------
			svc := service.New(service.Config{FS: mem, FeedDir: crashFeedDir, FeedThreshold: 0.01})
			d, err := svc.Open("kb", storeDir)
			if err != nil {
				t.Fatalf("recovery service Open failed: %v", err)
			}
			subs := make(map[string]bool)
			for _, s := range d.Subscribers() {
				subs[s.ID] = true
			}
			attempted := map[string]bool{pool[0].ID: true, pool[1].ID: true}
			for id := range subs {
				if !attempted[id] {
					t.Fatalf("recovered subscriber %q was never registered", id)
				}
			}
			for _, id := range ack.subs {
				if !subs[id] {
					t.Fatalf("acknowledged subscriber %q lost by recovery", id)
				}
			}
			okPairs := map[[2]string]bool{{ids[0], ids[1]}: true, {ids[1], ids[2]}: true}
			for id := range subs {
				entries, _, err := d.PollFeed(id, 0, 0)
				if err != nil {
					t.Fatalf("polling recovered feed of %q: %v", id, err)
				}
				// One fan-out batch delivers up to K notifications per user
				// for a pair, each through a distinct measure; the same
				// (pair, measure) appearing twice means a re-delivered batch.
				seen := make(map[[3]string]bool)
				for _, e := range entries {
					pair := [2]string{e.Note.OlderID, e.Note.NewerID}
					if !okPairs[pair] {
						t.Fatalf("subscriber %q holds entry for pair %v that was never fanned out", id, pair)
					}
					key := [3]string{e.Note.OlderID, e.Note.NewerID, e.Note.MeasureID}
					if seen[key] {
						t.Fatalf("subscriber %q received %v twice — a re-delivered batch", id, key)
					}
					seen[key] = true
				}
			}
			// An acknowledged fan-out is in the durable ledger: replaying the
			// pair must be a no-op, never a second delivery.
			for _, pair := range ack.fanouts {
				st, err := d.Feed().FanOutIndexedCtx(context.Background(), pair[0], pair[1], recommend.NewItemIndex(nil))
				if err != nil {
					t.Fatalf("re-fanning acked pair %v: %v", pair, err)
				}
				if !st.Skipped {
					t.Fatalf("acked fan-out %v not in the recovered ledger — it would re-deliver", pair)
				}
			}

			// --- The recovered store is fully usable ------------------------
			have := make(map[string]bool)
			for _, id := range d.Versions() {
				have[id] = true
			}
			for _, id := range ids {
				if !have[id] {
					if _, err := d.CommitCtx(context.Background(), id, bytes.NewReader(bodies[id])); err != nil {
						t.Fatalf("recovered store refused commit %q: %v", id, err)
					}
				}
			}
			if err := svc.Close(); err != nil {
				t.Fatalf("closing recovered service: %v", err)
			}
			final, err := store.OpenFS(mem, storeDir)
			if err != nil {
				t.Fatalf("reopening after recovery commits: %v", err)
			}
			if fids := final.IDs(); len(fids) != vs.Len() {
				t.Fatalf("final chain %v, want all %d versions", fids, vs.Len())
			}
			if n := final.WALSize(); n != 0 {
				t.Fatalf("WAL holds %d bytes after clean close", n)
			}
		})
	}
}

// sameGraph reports triple-for-triple equality.
func sameGraph(a, b *rdf.Graph) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.ForEach(func(tr rdf.Triple) bool {
		if !b.Has(tr) {
			same = false
			return false
		}
		return true
	})
	return same
}
