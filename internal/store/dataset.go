package store

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
)

// DefaultCacheCap is the Dataset's default LRU capacity: big enough to make
// walking a consecutive pair or small window free, small enough that a long
// chain never sits fully materialized in RAM.
const DefaultCacheCap = 4

// Dataset is a lazy handle over a stored version chain. Open decodes only
// the manifest and the string table; graphs materialize on first access and
// are kept in a small LRU, so asking for version k costs one snapshot decode
// plus the delta replays since the nearest snapshot (or cached graph) — not
// a load of the whole chain.
//
// Graphs returned by GraphCtx/GraphAtCtx share the dataset's Dict and are
// cached; treat them as immutable (the VersionStore convention). A Dataset
// is not safe for concurrent use.
//
// Once any write-path operation fails, the handle is poisoned: every
// further AppendBatchCtx/CheckpointReasonCtx returns the original error
// (reads keep working from memory). A half-applied commit must not be
// built upon — reopening the directory runs WAL recovery and yields a
// clean handle.
type Dataset struct {
	dir  string
	fsys vfs.FS
	man  *Manifest
	dict *rdf.Dict
	idx  map[string]int
	lru  lruCache

	wal *wal
	// met holds the instruments bound by SetMetrics (nil instruments, all
	// no-ops, until then).
	met metrics
	// pending holds segment paths written since the last checkpoint, still
	// owed an fsync before the manifest may reference them durably.
	pending map[string]bool
	// dictCovered is the dictionary watermark already durable or WAL-logged.
	// Terms above it exist only in memory (graphs sharing the dict may intern
	// between appends), so the next WAL record's tail starts here — not at
	// the dict size when AppendBatchCtx happens to run.
	dictCovered int
	failed      error
}

// Open reads dir's manifest and dictionary segment and returns a lazy
// dataset handle with the default cache capacity. It is OpenFS on the real
// filesystem.
func Open(dir string) (*Dataset, error) { return OpenFS(vfs.OS{}, dir) }

// OpenFS opens the store at dir on the given filesystem. Any WAL tail past
// the manifest is replayed: commits acknowledged before a crash but never
// checkpointed are re-applied (segments rewritten, dictionary re-interned,
// manifest rebuilt) and the store checkpointed, so the handle always starts
// from a durable, WAL-empty state.
func OpenFS(fsys vfs.FS, dir string) (*Dataset, error) {
	man, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	payload, err := readSegment(fsys, dir, man.Dict.File, kindDict)
	if err != nil {
		return nil, err
	}
	dict, err := decodeDict(man.Dict.File, payload)
	if err != nil {
		return nil, err
	}
	// The dictionary may hold MORE terms than the manifest records: a crash
	// between the checkpoint's dict-segment rename and its manifest write
	// leaves a superset dictionary under the old manifest — harmless, since
	// IDs are append-only and every decoder bounds-checks against the
	// dictionary it was handed. Fewer terms than recorded means real
	// corruption.
	if dict.Len()-1 < man.Terms {
		return nil, fmt.Errorf("store: dictionary has %d terms, manifest says %d",
			dict.Len()-1, man.Terms)
	}
	idx := make(map[string]int, len(man.Entries))
	for i, e := range man.Entries {
		if _, dup := idx[e.ID]; dup {
			return nil, fmt.Errorf("store: duplicate version ID %q in manifest", e.ID)
		}
		idx[e.ID] = i
	}
	ds := &Dataset{
		dir:     dir,
		fsys:    fsys,
		man:     man,
		dict:    dict,
		idx:     idx,
		lru:     lruCache{cap: DefaultCacheCap},
		wal:     &wal{fsys: fsys, dir: dir},
		pending: make(map[string]bool),
	}
	// Everything in the loaded dictionary is durable (the dict segment is
	// only ever written with full fsync discipline); replay may raise the
	// watermark further as it re-interns record tails.
	ds.dictCovered = dict.Len() - 1
	if err := ds.replayWAL(); err != nil {
		return nil, err
	}
	return ds, nil
}

// replayWAL applies the WAL's readable records past the manifest, then
// checkpoints. Records whose version the manifest already holds were applied
// before the crash and are skipped; a record whose parent is not the current
// chain tail ends replay (the durable state never reached it).
func (ds *Dataset) replayWAL() error {
	data, err := ds.wal.read()
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	recs, _, err := scanWAL(data)
	if err != nil {
		return err
	}
	applied := 0
	for _, rec := range recs {
		ds.wal.seq = rec.seq
		if _, done := ds.idx[rec.id]; done {
			continue
		}
		tail := ""
		if n := len(ds.man.Entries); n > 0 {
			tail = ds.man.Entries[n-1].ID
		}
		if rec.parent != tail {
			break
		}
		if err := ds.applyWALRecord(rec); err != nil {
			return err
		}
		applied++
	}
	if applied == 0 && len(recs) == 0 {
		// Pure torn tail: nothing readable, nothing to redo. Leave the file
		// for the first append's reset.
		return nil
	}
	// Everything readable is applied (or was already durable): make it all
	// durable and truncate the log.
	return ds.checkpointTimed(CheckpointReplay)
}

// applyWALRecord redoes one commit from its WAL record: re-interns the
// record's dictionary tail (verifying the IDs land exactly where the writer
// assigned them), validates the segment payload, writes the segment file,
// and extends the in-memory manifest.
func (ds *Dataset) applyWALRecord(rec *walRecord) error {
	if rec.dictBase > ds.dict.Len()-1 {
		return fmt.Errorf("store: WAL record %q: dictionary base %d past dictionary size %d",
			rec.id, rec.dictBase, ds.dict.Len()-1)
	}
	for j, t := range rec.dictTail {
		want := rdf.TermID(rec.dictBase + 1 + j)
		if got := ds.dict.Intern(t); got != want {
			return fmt.Errorf("store: WAL record %q: dictionary tail term %d interned as ID %d, want %d",
				rec.id, j, got, want)
		}
	}
	if covered := rec.dictBase + len(rec.dictTail); covered > ds.dictCovered {
		ds.dictCovered = covered
	}
	e := Entry{ID: rec.id}
	var err error
	switch rec.segKind {
	case kindSnapshot:
		e.Kind = kindNameSnapshot
		e.File = rec.id + ".snap"
		e.Triples, err = decodeSnapshot(e.File, rec.payload, ds.dict.Len(), func(rdf.IDTriple) {})
	case kindDelta:
		e.Kind = kindNameDelta
		e.File = rec.id + ".delta"
		e.Added, e.Deleted, err = decodeDelta(e.File, rec.payload, ds.dict.Len(),
			func(rdf.IDTriple) {}, func(rdf.IDTriple) {})
	}
	if err != nil {
		return fmt.Errorf("store: WAL record %q: %w", rec.id, err)
	}
	if !validFileName(e.File) {
		return fmt.Errorf("store: WAL record ID %q cannot name a segment file", rec.id)
	}
	path := joinPath(ds.dir, e.File)
	if e.Bytes, err = writeSegment(ds.fsys, path, rec.segKind, rec.payload, false); err != nil {
		return err
	}
	ds.met.segBytes.Add(float64(e.Bytes))
	ds.pending[path] = true
	ds.idx[rec.id] = len(ds.man.Entries)
	ds.man.Entries = append(ds.man.Entries, e)
	return nil
}

// CheckpointReasonCtx makes every commit since the last checkpoint durable
// and truncates the WAL: pending segments are fsynced, the directory synced
// so their names hold, the dictionary segment rewritten durably, and the
// manifest — the commit point — written with the full fsync discipline.
// After a clean checkpoint the WAL is redundant and reset. Idempotent and
// cheap when nothing is outstanding.
//
// reason is the trigger that lands in the checkpoint duration histogram —
// service layers distinguish idle background checkpoints from size-bound
// ones when reading saturation. When ctx carries a sampled trace the
// checkpoint is recorded as a "store.checkpoint" span attributed with the
// reason, so a wal-bound checkpoint triggered inside a commit shows up in
// that commit's timeline.
func (ds *Dataset) CheckpointReasonCtx(ctx context.Context, reason string) error {
	if ds.failed != nil {
		return ds.failed
	}
	if len(ds.pending) == 0 && ds.wal.size == 0 {
		return nil
	}
	_, sp := obs.StartSpan(ctx, "store.checkpoint")
	err := ds.checkpointTimed(reason)
	sp.SetAttr("reason", reason)
	sp.End()
	if err != nil {
		ds.fail(err)
		return err
	}
	return nil
}

// checkpointTimed runs checkpoint and reports its duration under reason.
// Only completed checkpoints are observed: a failed one poisons the handle
// and its partial duration would skew the histogram it never finished.
func (ds *Dataset) checkpointTimed(reason string) error {
	start := time.Now()
	if err := ds.checkpoint(); err != nil {
		return err
	}
	ds.met.checkpoint.With(reason).ObserveSince(start)
	return nil
}

func (ds *Dataset) checkpoint() error {
	for path := range ds.pending {
		if err := ds.fsys.SyncPath(path); err != nil {
			return fmt.Errorf("store: syncing segment %s: %w", path, err)
		}
	}
	if err := ds.fsys.SyncDir(ds.dir); err != nil {
		return fmt.Errorf("store: syncing store directory: %w", err)
	}
	dictBytes, err := writeSegment(ds.fsys, joinPath(ds.dir, ds.man.Dict.File), kindDict,
		appendDict(nil, ds.dict), true)
	if err != nil {
		return err
	}
	ds.met.segBytes.Add(float64(dictBytes))
	man := *ds.man
	man.Entries = append([]Entry(nil), ds.man.Entries...)
	man.Terms = ds.dict.Len() - 1
	man.Dict.Bytes = dictBytes
	if err := writeManifest(ds.fsys, ds.dir, &man, true); err != nil {
		return err
	}
	ds.man = &man
	ds.pending = make(map[string]bool)
	return ds.wal.reset()
}

// WALSize reports the write-ahead log's current byte size — what the next
// checkpoint will absorb. Service layers use it to pace background
// checkpoints.
func (ds *Dataset) WALSize() int64 { return ds.wal.size }

// Close checkpoints outstanding commits (unless the handle is poisoned) and
// releases the WAL handle. The dataset must not be used afterwards.
func (ds *Dataset) Close() error {
	var err error
	if ds.failed == nil && (len(ds.pending) > 0 || ds.wal.size > 0) {
		err = ds.CheckpointReasonCtx(context.Background(), CheckpointClose)
	}
	if cerr := ds.wal.close(); err == nil {
		err = cerr
	}
	// A poisoned or failed close leaves WAL bytes behind; they leave the
	// shared gauge with the handle (the next Open replays them).
	ds.wal.releaseSize()
	return err
}

// fail poisons the handle after a write-path error.
func (ds *Dataset) fail(err error) {
	if ds.failed == nil {
		ds.failed = fmt.Errorf("store: dataset %s failed, reopen to recover: %w", ds.dir, err)
	}
}

// Failed returns the error that poisoned the handle, or nil while healthy.
func (ds *Dataset) Failed() error { return ds.failed }

// HealCtx attempts to clear a poisoned handle in place, without reopening
// the directory. It is safe because a failed batch is rejected before the
// in-memory manifest is swapped: ds.man always holds exactly the
// acknowledged prefix, whatever the failure half-applied elsewhere. HealCtx
// rebuilds the index and pending set from that manifest, then runs a full
// checkpoint — fsync the acknowledged segments, rewrite the dictionary
// segment, write the manifest durably, truncate the WAL. The truncation
// deliberately discards WAL records of commits whose apply failed after
// the WAL fsync: their callers were handed an error, and resurrecting them
// on a later replay would turn a reported failure into a silent commit.
//
// On success the handle appends and checkpoints again and every
// acknowledged commit is durable. If the underlying fault persists, the
// checkpoint's error is returned and the handle stays poisoned (with the
// new error), ready for another attempt. When ctx carries a sampled trace
// the attempt is recorded as a "store.heal" span, so each supervised probe
// attempt shows up as its own span.
func (ds *Dataset) HealCtx(ctx context.Context) error {
	if ds.failed == nil {
		return nil
	}
	idx := make(map[string]int, len(ds.man.Entries))
	live := make(map[string]bool, len(ds.man.Entries))
	for i, e := range ds.man.Entries {
		idx[e.ID] = i
		live[joinPath(ds.dir, e.File)] = true
	}
	pending := make(map[string]bool, len(ds.pending))
	for path := range ds.pending {
		if live[path] {
			pending[path] = true
		}
	}
	ds.idx, ds.pending = idx, pending
	ds.failed = nil
	_, sp := obs.StartSpan(ctx, "store.heal")
	err := ds.checkpointTimed(CheckpointHeal)
	sp.End()
	if err != nil {
		ds.fail(err)
		return err
	}
	return nil
}

// SetCacheCap resizes the graph LRU, evicting down if needed. Capacities
// below 1 are rejected (a capacity of 0 would thrash every reconstruction),
// so callers wiring user input through — flags, HTTP parameters — surface a
// clear error instead of a silently clamped value.
func (ds *Dataset) SetCacheCap(n int) error {
	if n < 1 {
		return fmt.Errorf("store: cache capacity must be >= 1, got %d", n)
	}
	ds.lru.cap = n
	ds.lru.evict()
	return nil
}

// CacheCap returns the graph LRU's current capacity.
func (ds *Dataset) CacheCap() int { return ds.lru.cap }

// Len returns the number of stored versions.
func (ds *Dataset) Len() int { return len(ds.man.Entries) }

// IDs returns the version IDs in evolution order.
func (ds *Dataset) IDs() []string {
	out := make([]string, len(ds.man.Entries))
	for i, e := range ds.man.Entries {
		out[i] = e.ID
	}
	return out
}

// Dict returns the dataset's shared term dictionary. Every graph the
// dataset materializes interns into it, so cross-version diffs run on the
// ID fast path.
func (ds *Dataset) Dict() *rdf.Dict { return ds.dict }

// Manifest returns the dataset's manifest.
func (ds *Dataset) Manifest() *Manifest { return ds.man }

// CacheStats reports the LRU's hit/miss counters over GraphAtCtx requests.
func (ds *Dataset) CacheStats() (hits, misses int) { return ds.lru.hits, ds.lru.misses }

// Has reports whether the store holds a version with the given ID, without
// materializing anything.
func (ds *Dataset) Has(id string) bool {
	_, ok := ds.idx[id]
	return ok
}

// Graph materializes the version with the given ID.
func (ds *Dataset) Graph(id string) (*rdf.Graph, error) {
	return ds.GraphCtx(context.Background(), id)
}

// GraphCtx is Graph under a tracing context: an LRU miss records the
// reconstruction as a "store.materialize" span.
func (ds *Dataset) GraphCtx(ctx context.Context, id string) (*rdf.Graph, error) {
	i, ok := ds.idx[id]
	if !ok {
		return nil, fmt.Errorf("store: unknown version %q", id)
	}
	return ds.GraphAtCtx(ctx, i)
}

// GraphAtCtx materializes the i-th version in evolution order under a
// tracing context; see GraphCtx.
func (ds *Dataset) GraphAtCtx(ctx context.Context, i int) (*rdf.Graph, error) {
	if i < 0 || i >= len(ds.man.Entries) {
		return nil, fmt.Errorf("store: version index %d out of range [0, %d)", i, len(ds.man.Entries))
	}
	if g := ds.lru.get(i); g != nil {
		ds.met.cacheHits.Inc()
		return g, nil
	}
	ds.met.cacheMisses.Inc()
	_, sp := obs.StartSpan(ctx, "store.materialize")
	defer sp.End()
	g, replayed, err := ds.materialize(ctx, i)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetAttr("version", ds.man.Entries[i].ID)
		sp.SetAttr("deltas_replayed", strconv.Itoa(replayed))
	}
	return g, nil
}

// materialize reconstructs version i on an LRU miss, reporting how many
// delta segments were replayed forward from the reconstruction base. The
// replay checks ctx between delta segments, so a request whose deadline
// expires mid-reconstruction stops paying for segments nobody will read
// (nothing partial is cached — the LRU only sees the finished graph).
func (ds *Dataset) materialize(ctx context.Context, i int) (*rdf.Graph, int, error) {
	// Walk back to the nearest reconstruction base: a cached graph or a
	// snapshot entry (entry 0 is always a snapshot, so this terminates).
	// Because the walk stops at the first of either, the forward replay
	// below crosses delta entries only.
	base := i
	var g *rdf.Graph
	for {
		if cached := ds.lru.peek(base); cached != nil {
			g = cached.Clone()
			break
		}
		if ds.man.Entries[base].Kind == kindNameSnapshot {
			var err error
			if g, err = ds.loadSnapshot(base); err != nil {
				return nil, 0, err
			}
			break
		}
		base--
	}
	for j := base + 1; j <= i; j++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if err := ds.applyDelta(j, g); err != nil {
			return nil, 0, err
		}
	}
	ds.lru.put(i, g)
	return g, i - base, nil
}

// loadSnapshot decodes entry i's snapshot segment into a fresh graph
// sharing the dataset dictionary.
func (ds *Dataset) loadSnapshot(i int) (*rdf.Graph, error) {
	e := ds.man.Entries[i]
	payload, err := readSegment(ds.fsys, ds.dir, e.File, kindSnapshot)
	if err != nil {
		return nil, err
	}
	g := rdf.NewGraphWithDict(ds.dict)
	// Presize only the index: the decoder never interns (the shared dict is
	// already complete), and the hint is manifest data, so bound it by the
	// payload size lest a corrupted triple count force a huge allocation.
	g.GrowIndex(min(e.Triples, len(payload)))
	// Decoded runs are sorted and duplicate-free (the decoder enforces
	// strict ordering), so the unchecked bulk ingest is safe.
	n, err := decodeSnapshot(e.File, payload, ds.dict.Len(), g.AddIDUnchecked)
	if err != nil {
		return nil, err
	}
	if n != e.Triples {
		return nil, fmt.Errorf("store: segment %s: %d triples, manifest says %d", e.File, n, e.Triples)
	}
	return g, nil
}

// applyDelta replays entry i's delta segment onto g in place. Deletions are
// applied before additions, matching delta.Delta.Apply.
func (ds *Dataset) applyDelta(i int, g *rdf.Graph) error {
	e := ds.man.Entries[i]
	payload, err := readSegment(ds.fsys, ds.dir, e.File, kindDelta)
	if err != nil {
		return err
	}
	// The payload stores added-then-deleted but replay is deleted-then-
	// added (the delta.Delta.Apply order), so buffer both lists. Capacities
	// come from the manifest, bounded by the (already CRC-validated)
	// payload size so a corrupted manifest cannot force a huge allocation.
	added := make([]rdf.IDTriple, 0, min(e.Added, len(payload)))
	deleted := make([]rdf.IDTriple, 0, min(e.Deleted, len(payload)))
	nAdded, nDeleted, err := decodeDelta(e.File, payload, ds.dict.Len(),
		func(t rdf.IDTriple) { added = append(added, t) },
		func(t rdf.IDTriple) { deleted = append(deleted, t) })
	if err != nil {
		return err
	}
	if nAdded != e.Added || nDeleted != e.Deleted {
		return fmt.Errorf("store: segment %s: (%d, %d) changes, manifest says (%d, %d)",
			e.File, nAdded, nDeleted, e.Added, e.Deleted)
	}
	for _, t := range deleted {
		if !g.RemoveID(t) {
			return fmt.Errorf("store: segment %s: delta deletes absent triple", e.File)
		}
	}
	for _, t := range added {
		if !g.AddID(t) {
			return fmt.Errorf("store: segment %s: delta re-adds present triple", e.File)
		}
	}
	return nil
}

// VersionStore materializes every version eagerly, walking the chain once
// without disturbing the LRU. The returned store's graphs all share the
// dataset dictionary, so delta.Compute keeps its ID fast path after reload.
func (ds *Dataset) VersionStore() (*rdf.VersionStore, error) {
	vs := rdf.NewVersionStore()
	var prev *rdf.Graph
	for i, e := range ds.man.Entries {
		var g *rdf.Graph
		var err error
		if e.Kind == kindNameSnapshot {
			g, err = ds.loadSnapshot(i)
		} else {
			g = prev.Clone()
			err = ds.applyDelta(i, g)
		}
		if err != nil {
			return nil, err
		}
		if err := vs.Add(&rdf.Version{ID: e.ID, Graph: g}); err != nil {
			return nil, err
		}
		prev = g
	}
	return vs, nil
}

// lruCache is a tiny index→graph LRU. Capacities are single digits, so the
// recency list is a slice with most-recent last.
type lruCache struct {
	cap    int
	items  map[int]*rdf.Graph
	order  []int
	hits   int
	misses int
}

func (c *lruCache) get(i int) *rdf.Graph {
	g, ok := c.items[i]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.touch(i)
	return g
}

// peek returns the cached graph without counting or recency-bumping; the
// reconstruction walk probes many indexes per materialization and must not
// distort the stats or the eviction order.
func (c *lruCache) peek(i int) *rdf.Graph { return c.items[i] }

func (c *lruCache) put(i int, g *rdf.Graph) {
	if c.items == nil {
		c.items = make(map[int]*rdf.Graph)
	}
	if _, ok := c.items[i]; ok {
		c.items[i] = g
		c.touch(i)
		return
	}
	c.items[i] = g
	c.order = append(c.order, i)
	c.evict()
}

func (c *lruCache) touch(i int) {
	for k, v := range c.order {
		if v == i {
			copy(c.order[k:], c.order[k+1:])
			c.order[len(c.order)-1] = i
			return
		}
	}
}

func (c *lruCache) evict() {
	for len(c.order) > c.cap {
		delete(c.items, c.order[0])
		c.order = c.order[1:]
	}
}
