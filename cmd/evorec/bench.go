package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"evorec"
)

// benchResult is one benchmark's headline metrics, the unit of the perf
// trajectory artifact CI uploads per PR.
type benchResult struct {
	NsPerOp     int64 `json:"ns_op"`
	AllocsPerOp int64 `json:"allocs_op"`
	BytesPerOp  int64 `json:"bytes_op"`
}

// ingestBurst is the fixed unit of durable-ingestion work one benchmark
// iteration performs: 64 versions committed into a fresh disk-backed store.
const ingestBurst = 64

// ingestBody renders one full version body: a fixed base population plus a
// few sequence-unique triples, so consecutive versions delta-encode to a
// small constant-size change and the benchmark measures durability cost,
// not delta size.
func ingestBody(seq int) string {
	var sb strings.Builder
	for i := 0; i < 48; i++ {
		fmt.Fprintf(&sb, "<http://ex.org/i%03d> <http://ex.org/p%d> <http://ex.org/i%03d> .\n",
			i, i%4, (i*7)%48)
		fmt.Fprintf(&sb, "<http://ex.org/i%03d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/C%d> .\n",
			i, i%3)
	}
	for j := 0; j < 4; j++ {
		fmt.Fprintf(&sb, "<http://ex.org/new%09d> <http://ex.org/p0> <http://ex.org/i%03d> .\n",
			seq*4+j, j)
	}
	return sb.String()
}

// ingestBenchFn builds the durable-ingestion benchmark at the given committer
// count: every commit is acknowledged only after its WAL record is fsynced,
// a reader keeps serving cached recommendations throughout, and ns/op is per
// 64-version burst. workers=1 is the serial fsync-per-commit baseline;
// workers=8 is the group-commit path the speedup figure compares against it.
func ingestBenchFn(workers int, reg *evorec.MetricsRegistry) func(b *testing.B) {
	return func(b *testing.B) {
		bodies := make([]string, ingestBurst+2)
		for i := range bodies {
			bodies[i] = ingestBody(i)
		}
		svc := evorec.NewService(evorec.ServiceConfig{Metrics: reg})
		defer svc.Close()
		var dirs []string
		defer func() {
			for _, d := range dirs {
				os.RemoveAll(d)
			}
		}()

		var cur atomic.Pointer[evorec.ServiceDataset]
		u := evorec.NewProfile("reader")
		u.SetInterest(evorec.SchemaIRI("C0"), 1)
		req := evorec.Request{OlderID: "v1", NewerID: "v2", K: 3}
		stop := make(chan struct{})
		readErr := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := cur.Load()
				if d == nil {
					continue
				}
				if _, err := d.RecommendCtx(context.Background(), u, req); err != nil {
					readErr <- err
					return
				}
			}
		}()
		defer close(stop)

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "evorec-ingest-")
			if err != nil {
				b.Fatal(err)
			}
			dirs = append(dirs, dir)
			vs := evorec.NewVersionStore()
			g1 := evorec.NewGraph()
			if err := evorec.ReadNTriplesInto(g1, strings.NewReader(bodies[0])); err != nil {
				b.Fatal(err)
			}
			if err := vs.Add(&evorec.Version{ID: "v1", Graph: g1}); err != nil {
				b.Fatal(err)
			}
			if _, err := evorec.SaveStore(dir, vs, evorec.StoreOptions{Policy: evorec.StoreDeltaChain}); err != nil {
				b.Fatal(err)
			}
			d, err := svc.Open(fmt.Sprintf("ingest%06d", i), dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.CommitCtx(context.Background(), "v2", strings.NewReader(bodies[1])); err != nil {
				b.Fatal(err)
			}
			if _, err := d.RecommendCtx(context.Background(), u, req); err != nil {
				b.Fatal(err)
			}
			cur.Store(d)
			b.StartTimer()

			commitOne := func(k int64) error {
				_, err := d.CommitCtx(context.Background(), fmt.Sprintf("c%03d", k), strings.NewReader(bodies[int(k)+2]))
				return err
			}
			if workers == 1 {
				for k := int64(0); k < ingestBurst; k++ {
					if err := commitOne(k); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				var next int64 = -1
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							k := atomic.AddInt64(&next, 1)
							if k >= ingestBurst {
								return
							}
							if err := commitOne(k); err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				select {
				case err := <-errs:
					b.Fatal(err)
				default:
				}
			}
		}
		b.StopTimer()
		select {
		case err := <-readErr:
			b.Fatalf("reader failed during ingest: %v", err)
		default:
		}
	}
}

// cmdBench runs the scoring-kernel benchmarks in-process (the hot paths the
// serving stack bottoms out in: point recommendation on the flat kernel and
// on the map reference path, engine notification, commit-triggered feed
// fan-out, and k-anonymization) plus the durable-ingestion benchmarks
// (serial fsync-per-commit vs eight committers through the group-commit
// queue) and prints a table or, with -json, the machine-readable form CI
// archives as BENCH_7.json. The instrumented paths report into a live
// metrics registry whose snapshot rides along in the JSON, so throughput
// numbers can be read next to the WAL/fan-out counters that produced them.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON (benchmark name -> ns/op, allocs/op, bytes/op)")
	subscribers := fs.Int("subscribers", 10_000, "feed fan-out pool size (1% affected)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	vs, _, err := evorec.GenerateVersions(evorec.SmallKB(),
		evorec.EvolveConfig{Ops: 80, Locality: 0.8}, 1, 42)
	if err != nil {
		return err
	}
	older, _ := vs.Get("v1")
	newer, _ := vs.Get("v2")
	ctx := evorec.NewMeasureContext(older, newer)
	items := evorec.BuildItems(ctx, evorec.NewMeasureRegistry())
	idx := evorec.NewItemIndex(items)
	sch := evorec.ExtractSchema(older.Graph)
	pool, _, err := evorec.GenerateProfiles(sch,
		evorec.ProfileConfig{Users: 16, ExtraInterests: 2}, rand.New(rand.NewSource(2)))
	if err != nil {
		return err
	}
	eng := evorec.NewEngine(evorec.EngineConfig{})
	if err := eng.IngestAll(vs); err != nil {
		return err
	}
	if _, err := eng.Items("v1", "v2"); err != nil {
		return err
	}

	// Feed fixture: 1% of the pool subscribes to the hottest scored entity,
	// the rest to a term outside every item vector — the fan-out scores
	// only the affected share (the BenchmarkFeedFanout shape, CI-sized).
	var hot evorec.Term
	hotW := 0.0
	for _, it := range items {
		for tm, w := range it.Vector {
			if w > hotW {
				hot, hotW = tm, w
			}
		}
	}
	if hotW == 0 {
		return fmt.Errorf("bench: no scored entity in items")
	}
	reg := evorec.NewMetricsRegistry()
	cold := evorec.SchemaIRI("FanoutColdRegion")
	fd, err := evorec.OpenFeed(evorec.FeedConfig{
		Threshold: 0.01, K: 1, MaxLog: 4,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	affected := *subscribers / 100
	if affected < 1 {
		affected = 1
	}
	for i := 0; i < *subscribers; i++ {
		u := evorec.NewProfile(fmt.Sprintf("u%06d", i))
		if i < affected {
			u.SetInterest(hot, 1)
		} else {
			u.SetInterest(cold, 1)
		}
		if _, _, err := fd.Subscribe(u); err != nil {
			return err
		}
	}

	anonPool := pool
	if len(anonPool) > 16 {
		anonPool = anonPool[:16]
	}
	seq := 0

	type namedBench struct {
		name string
		fn   func(b *testing.B)
	}
	benches := []namedBench{
		{"recommend_topk_flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx.TopK(pool[i%len(pool)], 3)
			}
		}},
		{"recommend_topk_map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evorec.TopK(pool[i%len(pool)], items, 3)
			}
		}},
		{"notify_pool16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Notify(pool, "v1", "v2", 0.1, 3); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{fmt.Sprintf("feed_fanout_%dk_1pct", *subscribers/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// seq stays monotonic across the harness's b.N reruns: the
				// shared feed's idempotence ledger must never skip a pair.
				seq++
				st, err := fd.FanOutIndexedCtx(context.Background(), "v1", fmt.Sprintf("n%08d", seq), idx)
				if err != nil {
					b.Fatal(err)
				}
				if st.Affected != affected {
					b.Fatalf("affected = %d, want %d", st.Affected, affected)
				}
			}
		}},
		{"kanonymize_16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := evorec.KAnonymize(anonPool, 4); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ingest_serial_burst64", ingestBenchFn(1, reg)},
		{"ingest_group8_burst64", ingestBenchFn(8, reg)},
	}

	out := make(map[string]benchResult, len(benches))
	for _, nb := range benches {
		r := testing.Benchmark(nb.fn)
		if r.N == 0 {
			// testing.Benchmark reports failure as a zero-value result
			// rather than an error; a zeroed entry would silently corrupt
			// the CI perf-trajectory artifact.
			return fmt.Errorf("bench: %s failed (no iterations completed)", nb.name)
		}
		out[nb.name] = benchResult{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if !*asJSON {
			fmt.Printf("%-28s %12d ns/op %10d B/op %8d allocs/op   (%d iterations)\n",
				nb.name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
		}
	}
	// The durability headline: committed-versions/sec through the group
	// committer relative to the serial fsync-per-commit baseline.
	speedup := float64(out["ingest_serial_burst64"].NsPerOp) /
		float64(out["ingest_group8_burst64"].NsPerOp)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"format":               "evorec-bench/v1",
			"benchmarks":           out,
			"ingest_group_speedup": speedup,
			// The registry snapshot after every benchmark ran: WAL fsync and
			// batch-size distributions, fan-out counts, cache hit/miss — the
			// internals behind the headline numbers, archived with them.
			"metrics": reg.Snapshot(),
		})
	}
	fmt.Printf("%-28s %12.2fx committed-versions/sec vs serial fsync-per-commit\n",
		"ingest_group_speedup", speedup)
	return nil
}
