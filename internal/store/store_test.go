package store_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evorec/internal/delta"
	"evorec/internal/rdf"
	"evorec/internal/store"
	"evorec/internal/synth"
)

// appendOne commits v as a batch of one and returns its manifest entry.
func appendOne(ds *store.Dataset, v *rdf.Version) (*store.Entry, error) {
	entries, err := ds.AppendBatchCtx(context.Background(), []*rdf.Version{v})
	if err != nil {
		return nil, err
	}
	return entries[0], nil
}

// testChain generates a shared-dict evolving dataset for store tests.
func testChain(t testing.TB, steps int) *rdf.VersionStore {
	t.Helper()
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 60, Locality: 0.8}, steps, 7)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// assertSameVersions checks that got reproduces want version by version.
func assertSameVersions(t *testing.T, want, got *rdf.VersionStore) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("reloaded %d versions, want %d", got.Len(), want.Len())
	}
	for i, id := range want.IDs() {
		if got.IDs()[i] != id {
			t.Fatalf("version %d ID = %q, want %q", i, got.IDs()[i], id)
		}
		wv, _ := want.Get(id)
		gv, _ := got.Get(id)
		if gv.Graph.Len() != wv.Graph.Len() {
			t.Fatalf("version %s: %d triples, want %d", id, gv.Graph.Len(), wv.Graph.Len())
		}
		// Term-level diff works across the distinct dictionaries.
		if d := delta.Compute(wv.Graph, gv.Graph); !d.IsEmpty() {
			t.Fatalf("version %s differs after round-trip: %d changes", id, d.Size())
		}
	}
}

func TestStoreRoundTripAllPolicies(t *testing.T) {
	vs := testChain(t, 4)
	for _, pol := range []store.Policy{store.FullSnapshots, store.DeltaChain, store.Hybrid} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			man, err := store.Save(dir, vs, store.Options{Policy: pol, SnapshotEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			if man.Format != store.FormatV1 || len(man.Entries) != vs.Len() {
				t.Fatalf("manifest = %+v", man)
			}
			ds, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ds.VersionStore()
			if err != nil {
				t.Fatal(err)
			}
			assertSameVersions(t, vs, back)
			// Every reloaded graph shares one dictionary, so the delta
			// engine keeps its ID fast path after a round-trip.
			for _, id := range back.IDs() {
				v, _ := back.Get(id)
				if v.Graph.Dict() != ds.Dict() {
					t.Fatalf("version %s does not share the dataset dictionary", id)
				}
			}
			if _, ok := delta.ComputeIDs(back.At(0).Graph, back.At(back.Len()-1).Graph); !ok {
				t.Fatal("reloaded graphs must support ID-level diffing")
			}
		})
	}
}

func TestStoreStableIDs(t *testing.T) {
	vs := testChain(t, 2)
	dict := vs.At(0).Graph.Dict()
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dict().Len() != dict.Len() {
		t.Fatalf("reloaded dictionary has %d entries, want %d", ds.Dict().Len(), dict.Len())
	}
	for id := rdf.TermID(1); int(id) < dict.Len(); id++ {
		if ds.Dict().TermOf(id) != dict.TermOf(id) {
			t.Fatalf("term %d = %v, want %v (IDs must be stable across reload)",
				id, ds.Dict().TermOf(id), dict.TermOf(id))
		}
	}
}

func TestStoreLazyRandomAccess(t *testing.T) {
	vs := testChain(t, 5)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.Hybrid, SnapshotEvery: 3}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Ask for a middle version directly — no other version is materialized.
	mid := ds.Len() / 2
	g, err := ds.GraphAtCtx(context.Background(), mid)
	if err != nil {
		t.Fatal(err)
	}
	want := vs.At(mid).Graph
	if g.Len() != want.Len() || !delta.Compute(want, g).IsEmpty() {
		t.Fatalf("random access to version %d reconstructed the wrong graph", mid)
	}
	// Same request again is a cache hit returning the same graph.
	g2, err := ds.GraphAtCtx(context.Background(), mid)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g {
		t.Fatal("second access must hit the LRU and return the cached graph")
	}
	if hits, _ := ds.CacheStats(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	// Access by ID agrees with access by index.
	byID, err := ds.Graph(ds.IDs()[mid])
	if err != nil {
		t.Fatal(err)
	}
	if byID != g {
		t.Fatal("Graph(id) and GraphAt(i) must resolve to the same cached graph")
	}
	if _, err := ds.Graph("no-such-version"); err == nil {
		t.Fatal("unknown version ID must error")
	}
	if _, err := ds.GraphAtCtx(context.Background(), ds.Len()); err == nil {
		t.Fatal("out-of-range index must error")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	vs := testChain(t, 6)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.FullSnapshots}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetCacheCap(1); err != nil {
		t.Fatal(err)
	}
	g0, err := ds.GraphAtCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.GraphAtCtx(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Version 0 was evicted; a fresh reconstruction is a different object
	// with the same content.
	g0again, err := ds.GraphAtCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g0again == g0 {
		t.Fatal("cap-1 LRU must have evicted version 0")
	}
	if !delta.Compute(g0, g0again).IsEmpty() {
		t.Fatal("evicted and reconstructed graphs must be equal")
	}
}

func TestStoreForeignDictGraphs(t *testing.T) {
	// Each version built with its own dictionary: Save must re-encode them
	// against one dict and still round-trip exactly.
	vs := rdf.NewVersionStore()
	g1 := rdf.NewGraph()
	g1.Add(rdf.T(rdf.NewIRI("ex:a"), rdf.NewIRI("ex:p"), rdf.NewLiteral("x")))
	g1.Add(rdf.T(rdf.NewIRI("ex:a"), rdf.NewIRI("ex:p"), rdf.NewTypedLiteral("1", "ex:int")))
	g2 := rdf.NewGraph()
	g2.Add(rdf.T(rdf.NewIRI("ex:a"), rdf.NewIRI("ex:p"), rdf.NewLiteral("x")))
	g2.Add(rdf.T(rdf.NewIRI("ex:b"), rdf.NewIRI("ex:q"), rdf.NewLangLiteral("hi", "en")))
	if err := vs.Add(&rdf.Version{ID: "v1", Graph: g1}); err != nil {
		t.Fatal(err)
	}
	if err := vs.Add(&rdf.Version{ID: "v2", Graph: g2}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ds.VersionStore()
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, vs, back)
}

func TestStoreRejectsEscapingFileNames(t *testing.T) {
	// A crafted manifest must not be able to point reads outside the store
	// directory.
	vs := testChain(t, 1)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.FullSnapshots}); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	evil := strings.Replace(string(data), `"dict.seg"`, `"../dict.seg"`, 1)
	if evil == string(data) {
		t.Fatal("fixture: dict file name not found in manifest")
	}
	if err := os.WriteFile(manPath, []byte(evil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("manifest with escaping file name must be rejected, got %v", err)
	}
	if _, err := store.Inspect(dir); err == nil {
		t.Fatal("Inspect must reject an escaping manifest too")
	}
	// A version ID that would escape as a file name is refused at save time.
	bad := rdf.NewVersionStore()
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.NewIRI("ex:a"), rdf.NewIRI("ex:p"), rdf.NewIRI("ex:b")))
	if err := bad.Add(&rdf.Version{ID: "../v1", Graph: g}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(t.TempDir(), bad, store.Options{}); err == nil {
		t.Fatal("version ID with a path separator must fail to save")
	}
}

func TestStoreEmpty(t *testing.T) {
	if _, err := store.Save(t.TempDir(), rdf.NewVersionStore(), store.Options{}); err == nil {
		t.Fatal("saving an empty version store must error")
	}
	if _, err := store.Open(t.TempDir()); err == nil {
		t.Fatal("opening a directory without a manifest must error")
	}
}

// corrupt flips one byte at off (negative: from the end) in the file.
func corrupt(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0x5a
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCorruptionDetected(t *testing.T) {
	vs := testChain(t, 2)
	save := func(t *testing.T) string {
		dir := t.TempDir()
		if _, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("dict payload", func(t *testing.T) {
		dir := save(t)
		corrupt(t, filepath.Join(dir, "dict.seg"), 40)
		if _, err := store.Open(dir); err == nil {
			t.Fatal("corrupted dictionary must fail to open")
		}
	})
	t.Run("snapshot payload", func(t *testing.T) {
		dir := save(t)
		corrupt(t, filepath.Join(dir, "v1.snap"), 40)
		ds, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.GraphAtCtx(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupted snapshot must fail the checksum, got %v", err)
		}
	})
	t.Run("delta truncated", func(t *testing.T) {
		dir := save(t)
		path := filepath.Join(dir, "v2.delta")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.GraphAtCtx(context.Background(), 1); err == nil {
			t.Fatal("truncated delta must fail to decode")
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		dir := save(t)
		// Swap the delta segment in place of the snapshot.
		data, err := os.ReadFile(filepath.Join(dir, "v2.delta"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "v1.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.GraphAtCtx(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "kind") {
			t.Fatalf("kind mismatch must be detected, got %v", err)
		}
	})
}

func TestInspect(t *testing.T) {
	vs := testChain(t, 3)
	dir := t.TempDir()
	man, err := store.Save(dir, vs, store.Options{Policy: store.Hybrid, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != store.FormatV1 || info.Policy != "hybrid" {
		t.Fatalf("info header = %+v", info)
	}
	if info.Versions != vs.Len() || info.Snapshots+info.Deltas != vs.Len() {
		t.Fatalf("info counts = %+v", info)
	}
	if len(info.Segments) != len(man.Entries)+1 {
		t.Fatalf("info has %d segments, want %d", len(info.Segments), len(man.Entries)+1)
	}
	for _, s := range info.Segments {
		if !s.OK {
			t.Fatalf("segment %s failed verification: %s", s.File, s.Err)
		}
	}
	usage, err := store.DiskUsage(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	if usage != info.TotalBytes {
		t.Fatalf("DiskUsage = %d, Inspect total = %d", usage, info.TotalBytes)
	}
	// A corrupted segment is reported, not fatal.
	corrupt(t, filepath.Join(dir, "v1.snap"), -1)
	info, err = store.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range info.Segments {
		if s.File == "v1.snap" {
			found = true
			if s.OK || s.Err == "" {
				t.Fatal("corrupted segment must be reported as not OK")
			}
		}
	}
	if !found {
		t.Fatal("v1.snap missing from inspection")
	}
}

func TestSetCacheCapValidates(t *testing.T) {
	vs := testChain(t, 2)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, -3} {
		if err := ds.SetCacheCap(bad); err == nil {
			t.Fatalf("SetCacheCap(%d) must be rejected", bad)
		}
	}
	if got := ds.CacheCap(); got != store.DefaultCacheCap {
		t.Fatalf("rejected caps must not change the capacity: got %d, want %d",
			got, store.DefaultCacheCap)
	}
	if err := ds.SetCacheCap(2); err != nil {
		t.Fatal(err)
	}
	if got := ds.CacheCap(); got != 2 {
		t.Fatalf("CacheCap = %d, want 2", got)
	}
}

// TestStoreAppend commits versions onto an existing store at runtime and
// verifies the appended chain round-trips bit-identically under each policy,
// including a version that interns brand-new terms (forcing the dictionary
// segment rewrite).
func TestStoreAppend(t *testing.T) {
	vs := testChain(t, 5) // v1..v6
	full := vs.Len()
	for _, pol := range []store.Policy{store.FullSnapshots, store.DeltaChain, store.Hybrid} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			// Seed the store with the first three versions only.
			seed := rdf.NewVersionStore()
			for i := 0; i < 3; i++ {
				if err := seed.Add(vs.At(i)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := store.Save(dir, seed, store.Options{Policy: pol, SnapshotEvery: 2}); err != nil {
				t.Fatal(err)
			}
			ds, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Commit the remaining versions one by one, re-encoded into the
			// dataset dictionary (they come from a foreign dict: the
			// generator's), plus one extra hand-built version with new terms.
			for i := 3; i < full; i++ {
				v := vs.At(i)
				if _, err := appendOne(ds, v); err != nil {
					t.Fatalf("append %s: %v", v.ID, err)
				}
			}
			last, err := ds.GraphAtCtx(context.Background(), full-1)
			if err != nil {
				t.Fatal(err)
			}
			extra := last.Clone()
			extra.Add(rdf.T(rdf.ResourceIRI("appended-subject"), rdf.RDFSLabel,
				rdf.NewLiteral("appended at runtime")))
			entry, err := appendOne(ds, &rdf.Version{ID: "v-extra", Graph: extra})
			if err != nil {
				t.Fatal(err)
			}
			if entry.ID != "v-extra" {
				t.Fatalf("entry ID = %q", entry.ID)
			}
			if pol == store.DeltaChain && entry.Kind != "delta" {
				t.Fatalf("delta_chain append produced kind %q", entry.Kind)
			}
			if pol == store.FullSnapshots && entry.Kind != "snapshot" {
				t.Fatalf("full_snapshots append produced kind %q", entry.Kind)
			}
			// Duplicate and invalid IDs are rejected.
			if _, err := appendOne(ds, &rdf.Version{ID: "v-extra", Graph: extra}); err == nil {
				t.Fatal("duplicate version ID must be rejected")
			}
			if _, err := appendOne(ds, &rdf.Version{ID: "../evil", Graph: extra}); err == nil {
				t.Fatal("path-escaping version ID must be rejected")
			}
			// A fresh Open sees the full appended chain, identical contents.
			back, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != full+1 {
				t.Fatalf("reopened store has %d versions, want %d", back.Len(), full+1)
			}
			want := rdf.NewVersionStore()
			for i := 0; i < full; i++ {
				if err := want.Add(vs.At(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := want.Add(&rdf.Version{ID: "v-extra", Graph: extra}); err != nil {
				t.Fatal(err)
			}
			got, err := back.VersionStore()
			if err != nil {
				t.Fatal(err)
			}
			assertSameVersions(t, want, got)
			// The hybrid cadence persists across append: with SnapshotEvery=2
			// every even index is a snapshot.
			if pol == store.Hybrid {
				for i, e := range back.Manifest().Entries {
					wantKind := "delta"
					if i%2 == 0 {
						wantKind = "snapshot"
					}
					if e.Kind != wantKind {
						t.Fatalf("hybrid entry %d kind = %q, want %q", i, e.Kind, wantKind)
					}
				}
			}
		})
	}
}

// TestStoreOpenToleratesSupersetDict simulates the append crash window:
// the rewritten dictionary segment has landed (append-only superset) but
// the manifest rename did not. Open must accept the extra terms — IDs are
// stable and every decoder bounds-checks — while still rejecting a
// dictionary with FEWER terms than recorded.
func TestStoreOpenToleratesSupersetDict(t *testing.T) {
	vs := testChain(t, 2)
	dir := t.TempDir()
	man, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain})
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	// Manifest claims one term less than the dictionary holds: the state a
	// crash between the dict and manifest renames leaves behind.
	fewer := strings.Replace(string(data),
		fmt.Sprintf(`"terms": %d`, man.Terms),
		fmt.Sprintf(`"terms": %d`, man.Terms-1), 1)
	if fewer == string(data) {
		t.Fatal("fixture: terms count not found in manifest")
	}
	if err := os.WriteFile(manPath, []byte(fewer), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatalf("superset dictionary must be tolerated, got %v", err)
	}
	back, err := ds.VersionStore()
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, vs, back)
	// The inverse — dictionary missing recorded terms — is corruption.
	more := strings.Replace(string(data),
		fmt.Sprintf(`"terms": %d`, man.Terms),
		fmt.Sprintf(`"terms": %d`, man.Terms+1), 1)
	if err := os.WriteFile(manPath, []byte(more), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir); err == nil {
		t.Fatal("dictionary with fewer terms than recorded must be rejected")
	}
}
