package store_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"evorec/internal/rdf"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// TestStoreHealTransientFault drives one open handle through a transient
// write fault and back: the faulted append poisons the handle (every later
// append fails fast), HealCtx cannot clear it while the fault holds, and once
// the fault lifts HealCtx restores full service in place — the acknowledged
// prefix intact, the failed ID free to retry, and the healed chain
// surviving a reopen.
func TestStoreHealTransientFault(t *testing.T) {
	chaos := vfs.NewChaosFS(vfs.NewMemFS(), "data")
	vs := testChain(t, 3)
	if _, err := store.SaveFS(chaos, "data/ds", vs, store.Options{Policy: store.Hybrid, SnapshotEvery: 2}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.OpenFS(chaos, "data/ds")
	if err != nil {
		t.Fatal(err)
	}
	next := func(id string) *rdf.Version {
		g := rdf.NewGraphWithDict(ds.Dict())
		nt := "<http://example.org/" + id + "> <http://www.w3.org/2000/01/rdf-schema#seeAlso> <http://example.org/x> .\n"
		if err := rdf.ReadNTriplesInto(g, strings.NewReader(nt)); err != nil {
			t.Fatal(err)
		}
		return &rdf.Version{ID: id, Graph: g}
	}
	if _, err := appendOne(ds, next("x1")); err != nil {
		t.Fatalf("healthy append: %v", err)
	}

	chaos.Arm()
	if _, err := appendOne(ds, next("x2")); !errors.Is(err, vfs.ErrChaos) {
		t.Fatalf("faulted append = %v, want ErrChaos in the chain", err)
	}
	if ds.Failed() == nil {
		t.Fatal("handle not poisoned after a WAL fault")
	}
	// Poisoned handles fail fast without touching the disk again.
	before := chaos.Faults()
	if _, err := appendOne(ds, next("x3")); err == nil {
		t.Fatal("append on a poisoned handle succeeded")
	}
	if chaos.Faults() != before {
		t.Fatal("poisoned append reached the filesystem")
	}
	// HealCtx is powerless while the fault persists: the heal checkpoint
	// itself faults and the handle stays poisoned.
	if err := ds.HealCtx(context.Background()); err == nil {
		t.Fatal("HealCtx succeeded while the fault was still armed")
	}
	if ds.Failed() == nil {
		t.Fatal("handle unpoisoned by a failed heal")
	}

	chaos.Disarm()
	if err := ds.HealCtx(context.Background()); err != nil {
		t.Fatalf("heal after the fault cleared: %v", err)
	}
	if err := ds.Failed(); err != nil {
		t.Fatalf("Failed() = %v after a successful heal", err)
	}
	// HealCtx checkpointed: the acknowledged prefix is durable and the WAL is
	// empty, with the faulted batch's record discarded (its caller saw an
	// error; replaying it would resurrect a reported failure).
	if n := ds.WALSize(); n != 0 {
		t.Fatalf("WAL holds %d bytes after heal (heal checkpoints and truncates)", n)
	}
	// The failed IDs were never stored, so retries are fresh commits.
	if _, err := appendOne(ds, next("x2")); err != nil {
		t.Fatalf("retrying the faulted ID after heal: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := store.OpenFS(chaos, "data/ds")
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	if got, want := back.Len(), vs.Len()+2; got != want {
		t.Fatalf("reopened chain has %d versions, want %d", got, want)
	}
	for _, id := range []string{"x1", "x2"} {
		if !back.Has(id) {
			t.Fatalf("version %q missing after heal + reopen", id)
		}
		if _, err := back.Graph(id); err != nil {
			t.Fatalf("materializing %q after heal: %v", id, err)
		}
	}
	if back.Has("x3") {
		t.Fatal("failed append x3 resurrected by reopen")
	}
}
