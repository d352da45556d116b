package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// readRecs and routeRecs select a window's successful requests.
func readRecs(w *window) (out []opRec) {
	for _, r := range w.recs {
		if r.ok && isRead(r.route) {
			out = append(out, r)
		}
	}
	return out
}

func routeRecs(w *window, route uint8) (out []opRec) {
	for _, r := range w.recs {
		if r.ok && r.route == route {
			out = append(out, r)
		}
	}
	return out
}

func latMS(rs []opRec) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.latency()) / 1e6
	}
	return out
}

func seconds(w *window) float64 { return float64(w.end-w.start) / 1e9 }

// perSecondQuantiles returns, for each whole second of the timed region
// that completed reads, the p50 and p99 of their latencies. The reported
// read latencies are the medians of these: on two shared cores a second in
// which another tenant stalls the machine, or a store checkpoint holds the
// dataset lock, moves them less than it moves one quantile over the run.
func perSecondQuantiles(rs []opRec, start int64, secs int) (p50s, p99s []float64) {
	lat := make([][]float64, secs)
	for _, r := range rs {
		if i := int((r.end - start) / 1e9); i >= 0 && i < secs {
			lat[i] = append(lat[i], float64(r.latency())/1e6)
		}
	}
	for _, l := range lat {
		if len(l) > 0 {
			p50s = append(p50s, quantile(l, 0.5))
			p99s = append(p99s, quantile(l, 0.99))
		}
	}
	return p50s, p99s
}

// sliceRates orders the requests by completion, cuts them into n slices of
// equal count and returns each slice's completion rate per second. Their
// median is the throughput: a few seconds in which another tenant of the
// machine stalls the run move it less than they move a mean.
func sliceRates(rs []opRec, n int) []float64 {
	ends := make([]float64, len(rs))
	for i, r := range rs {
		ends[i] = float64(r.end)
	}
	sort.Float64s(ends)
	size := len(ends) / n
	if size < 2 {
		return []float64{math.NaN()}
	}
	out := make([]float64, n)
	for i := range out {
		first, last := ends[i*size], ends[(i+1)*size-1]
		out[i] = float64(size-1) / ((last - first) / 1e9)
	}
	return out
}

// commitWindow is where a workload's commits were measured: the write phase
// of the read workloads, the timed region of ingest-fanout.
func (o *outcome) commitWindow() *window {
	if o.write != nil {
		return o.write
	}
	return o.timed
}

// endToEnd computes the user-visible metrics.
func endToEnd(o *outcome, ms *metrics) {
	ms.set("setup_s", median(append([]float64(nil), o.setup...)), "s")
	ms.note("setup_s", "median of %d set-ups: %.4g", len(o.setup), o.setup)
	reads := readRecs(o.timed)
	rates := sliceRates(reads, o.seconds)
	ms.set("reads_per_s", median(rates), "1/s")
	ms.note("reads_per_s", "median of %d slice rates; %d reads in %.2fs", len(rates), len(reads), seconds(o.timed))
	cw := o.commitWindow()
	commits := routeRecs(cw, rCommit)
	p50s, p99s := perSecondQuantiles(reads, o.timed.start, o.seconds)
	ms.set("read_p50_ms", median(p50s), "ms")
	ms.set("read_p99_ms", median(p99s), "ms")
	ms.note("read_p99_ms", "medians over %d one-second windows of %d reads", len(p99s), len(reads))
	crates := sliceRates(commits, max(1, int(seconds(cw)+0.5)))
	ms.set("commits_per_s", median(crates), "1/s")
	ms.note("commits_per_s", "median of %d slice rates; %d commits in %.2fs", len(crates), len(commits), seconds(cw))
	clat := latMS(commits)
	ms.set("commit_p50_ms", quantile(clat, 0.5), "ms")
	ms.set("commit_p90_ms", quantile(clat, 0.9), "ms")
	ms.note("commit_p90_ms", "%d commits", len(clat))
	// Memory is charged to the closed-loop operations: an open-loop
	// reader's count is fixed by its rate, so charging ingest-fanout's
	// memory to its commits keeps the ratio independent of how many commits
	// a run happened to complete.
	ops := float64(len(reads))
	if o.write == nil {
		ops = float64(len(commits))
	}
	ms.set("retained_kb_per_op", (float64(o.heap1.live)-float64(o.heap0.live))/1024/ops, "KiB")
	ms.set("allocs_per_op", float64(o.heap1.mallocs-o.heap0.mallocs)/ops, "count")
	ms.note("allocs_per_op", "%d closed-loop ops; client and server share the process", int(ops))
	ms.set("cpu_ms_per_op", float64(o.timed.cpu1-o.timed.cpu0)/1e6/ops, "ms")
	ms.set("failed_frac", float64(o.errs+o.failed)/float64(o.attempted()), "frac")
	ms.note("failed_frac", "%d request failures + %d failed checks of %d ops", o.errs, o.failed, o.attempted())
}

func (o *outcome) attempted() int {
	n := len(o.timed.recs)
	if o.write != nil {
		n += len(o.write.recs)
	}
	return n
}

// timeline prints reads and their median latency per second of the timed
// region, which shows whether a slow run was slow throughout or stalled.
func timeline(w io.Writer, o *outcome) {
	n := int((o.timed.end-o.timed.start)/1e9) + 1
	lat := make([][]float64, n)
	for _, r := range readRecs(o.timed) {
		i := int((r.end - o.timed.start) / 1e9)
		lat[i] = append(lat[i], float64(r.latency())/1e6)
	}
	fmt.Fprintf(w, "timeline (reads, median ms per second):")
	for _, l := range lat {
		fmt.Fprintf(w, " %d/%.3g", len(l), median(l))
	}
	fmt.Fprintln(w)
}

// attribution prints, per route, the client's latency next to the server
// route histogram's, over the write and timed windows.
func attribution(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "client-vs-server attribution (client: request sent to body read; server: route histogram)\n")
	fmt.Fprintf(w, "  %-16s %8s %12s %12s %12s %12s\n", "route", "n", "client_p50ms", "client_mean", "server_mean", "gap_mean_us")
	for r := uint8(0); r < numRoutes; r++ {
		var client []float64
		var srvSum, srvCount float64
		for _, win := range []*window{o.write, o.timed} {
			if win == nil {
				continue
			}
			for _, rec := range routeRecs(win, r) {
				client = append(client, float64(rec.end-rec.start)/1e6)
			}
			label := `{route="` + routeLabels[r] + `"}`
			srvSum += win.delta("evorec_http_request_seconds_sum" + label)
			srvCount += win.delta("evorec_http_request_seconds_count" + label)
		}
		if len(client) == 0 || srvCount == 0 {
			continue
		}
		mean := 0.0
		for _, x := range client {
			mean += x
		}
		mean /= float64(len(client))
		srv := srvSum / srvCount * 1e3
		fmt.Fprintf(w, "  %-16s %8d %12.4f %12.4f %12.4f %12.1f\n", routeNames[r], len(client),
			quantile(client, 0.5), mean, srv, (mean-srv)*1e3)
	}
}

// perLayer computes the traced run's per-layer metrics.
func perLayer(e *env, o *outcome, ms *metrics) {
	bench := e.rec.durations()
	benchMed := func(name string, scale func([]time.Duration) []float64) float64 {
		return median(scale(bench[name]))
	}
	progSelf, roots := programSelf(o.traces)
	tw, cw := o.timed, o.commitWindow()

	// server / service, from the live probe.
	var self, direct []float64
	for _, p := range o.live {
		self = append(self, float64(p.http-p.direct)/1e3)
		direct = append(direct, float64(p.direct)/1e3)
	}
	ms.set("server.self_us", median(self), "us")
	ms.note("server.self_us", "HTTP minus direct RecommendCtx, %d probes", len(self))
	rl := `{route="` + routeLabels[rRecommend] + `"}`
	ms.set("server.resp_bytes_per_req", tw.delta("evorec_http_response_bytes_total"+rl)/
		tw.delta("evorec_http_request_seconds_count"+rl), "bytes")
	ms.set("service.recommend_us", median(direct), "us")
	builds := tw.delta("evorec_context_builds_total")
	hits := tw.delta("evorec_pair_cache_hits_total")
	ms.set("service.pair_builds", builds, "count")
	ms.set("service.pair_hit_ratio", hits/(hits+builds), "frac")
	ms.set("service.batch_size_mean", cw.delta("evorec_commit_batch_size_sum")/cw.delta("evorec_commit_batch_size_count"), "count")

	// Program-side spans, self time per span.
	for _, name := range []string{"commit.queue_wait", "service.pair_build", "store.append", "wal.fsync", "feed.score", "feed.persist"} {
		ms.set(name+"_ms", median(toMS(progSelf[name])), "ms")
		ms.note(name+"_ms", "server span self time, %d spans", len(progSelf[name]))
	}

	// Benchmark-side spans.
	ms.set("recommend.topk_us", benchMed("recommend.topk", toUS), "us")
	ms.set("recommend.index_build_ms", benchMed("recommend.index_build", toMS), "ms")
	ms.set("measures.context_ms", benchMed("measures.context", toMS), "ms")
	ms.note("measures.context_ms", "%d pairs", len(bench["measures.context"]))
	for _, n := range []string{"delta.compute", "schema.extract", "semantics.analyze", "graphx.build"} {
		ms.set(n+"_ms", benchMed(n, toMS), "ms")
	}
	ms.set("measures.eval_ms", benchMed("measures.eval", toMS), "ms")
	for _, n := range sortedKeys(bench) {
		if strings.HasPrefix(n, "measures.eval.") {
			ms.set("measures.eval_ms."+strings.TrimPrefix(n, "measures.eval."), benchMed(n, toMS), "ms")
		}
	}
	ms.set("store.materialize_ms", benchMed("store.materialize", toMS), "ms")
	ms.note("store.materialize_ms", "%d cold materializations", len(bench["store.materialize"]))
	ch, cm := o.finalReg["evorec_store_cache_hits_total"], o.finalReg["evorec_store_cache_misses_total"]
	ms.set("store.cache_hit_ratio", ch/(ch+cm), "frac")
	ms.set("rdf.parse_ms", benchMed("rdf.parse", toMS), "ms")

	// Deterministic I/O counts per acked commit.
	commits := float64(len(routeRecs(cw, rCommit)))
	for _, t := range []struct {
		name string
		d    ioCounts
	}{{"store", cw.store1.sub(cw.store0)}, {"feed", cw.feed1.sub(cw.feed0)}} {
		ms.set(t.name+".fsyncs_per_commit", float64(t.d.FileSyncs+t.d.DirSyncs)/commits, "count")
		ms.set(t.name+".dir_fsyncs_per_commit", float64(t.d.DirSyncs)/commits, "count")
		ms.set(t.name+".renames_per_commit", float64(t.d.Renames)/commits, "count")
		ms.set(t.name+".bytes_per_commit", float64(t.d.BytesWritten)/commits, "bytes")
	}
	fanouts := cw.delta("evorec_fanout_seconds_count")
	ms.set("feed.fanout_ms", cw.delta("evorec_fanout_seconds_sum")/fanouts*1e3, "ms")
	affected := cw.delta("evorec_fanout_affected_sum")
	ms.set("feed.affected_per_commit", affected/commits, "count")
	ms.set("feed.notified_frac", cw.delta("evorec_fanout_notified_total")/affected, "frac")

	reqs := float64(len(tw.recs))
	ms.set("provenance.records_per_req", float64(tw.prov1-tw.prov0)/reqs, "count")
	ms.set("runtime.gc_cycles_per_kop", float64(o.heap1.numGC-o.heap0.numGC)*1000/reqs, "count")

	// Client latency minus the server's root span, matched by request ID.
	gaps := make(map[uint8][]float64)
	var all []opRec
	all = append(all, e.setupRecs...)
	for _, w := range []*window{o.write, o.timed} {
		if w != nil {
			all = append(all, w.recs...)
		}
	}
	all = append(all, o.postRecs...)
	for _, r := range all {
		if !r.ok || !r.traced {
			continue
		}
		if d, ok := roots[requestID(int(r.conn), r.seq)]; ok {
			gaps[r.route] = append(gaps[r.route], float64(time.Duration(r.end-r.start)-d)/1e3)
		}
	}
	for _, r := range []uint8{rRecommend, rFeed, rCommit, rSubscribe} {
		ms.set("client.gap_us."+routeNames[r], median(gaps[r]), "us")
		ms.note("client.gap_us."+routeNames[r], "%d matched requests", len(gaps[r]))
	}

	// Tracing overhead: requests per second in traced vs untraced slices.
	var n [2]float64
	var dur [2]float64
	for k, s := range o.slices {
		s.hi = min(s.hi, tw.end) // a halted region ends inside its last slice
		dur[k%2] += float64(s.hi - s.lo)
		for _, r := range tw.recs {
			if r.ok && r.start >= s.lo && r.start < s.hi {
				n[k%2]++
			}
		}
	}
	ms.set("obs.trace_overhead_frac", 1-(n[1]/dur[1])/(n[0]/dur[0]), "frac")
	ms.note("obs.trace_overhead_frac", "%.0f untraced vs %.0f traced requests", n[0], n[1])
	ms.set("loadgen.lag_p99_ms", quantile(append([]float64(nil), o.lags...), 0.99), "ms")
	ms.note("loadgen.lag_p99_ms", "%s, %d samples, %d traces dropped", o.lagKind, len(o.lags), o.dropped)
}
