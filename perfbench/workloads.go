package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evorec/internal/profile"
)

// workload is one traffic mix. The why strings are BENCHMARK.json's.
type workload struct {
	params func(o options) params
	// warm runs at the end of set-up, on the set-up connection.
	warm func(e *env, c *conn) error
	// writePhase runs the serial commit phase before the timed reads.
	writePhase bool
	drive      func(e *env, out *outcome) error
}

var workloads = map[string]workload{
	"warm-read":     {params: warmParams, warm: warmUp, writePhase: true, drive: driveWarm},
	"cold-build":    {params: coldParams, writePhase: true, drive: driveCold},
	"ingest-fanout": {params: ingestParams, warm: ingestWarm, drive: driveIngest},
}

// connCapacity preallocates a timed connection's records, so recording
// them does not show as retained heap.
func connCapacity(o options) int { return o.seconds*12000 + 1024 }

// sample is one recommend response kept for the output check.
type sample struct {
	pair pair
	user *profile.Profile
	k    int
	body []byte
}

// ---------------------------------------------------------------------------
// warm-read: closed loop over a few pairs built during set-up.

func warmParams(o options) params {
	return params{chainLen: 5 + 120, baseLen: 5, writeCommits: 120, subscribers: 10, distance: "1-3"}
}

// warmPairs are the pairs warm-read reads, all among the packed versions.
var warmPairs = []pair{{"v1", "v2"}, {"v2", "v3"}, {"v3", "v4"}, {"v2", "v5"}}

var strategies = []string{"plain", "mmr", "novelty", "semantic"}

var aggregations = []string{"average", "least_misery", "most_pleasure"}

func warmUp(e *env, c *conn) error {
	for _, p := range warmPairs {
		if _, ok := c.do(http.MethodGet, recommendURL(e.st.base, p, e.users[0], "plain", 3), nil, rRecommend, 0, false); !ok {
			return fmt.Errorf("warming %v: %s", p, c.last)
		}
	}
	return nil
}

// warmOp is one precomputed warm-read request.
type warmOp struct {
	url   string
	route uint8
	rec   *sample // non-nil for a plain recommend that may be sampled
}

// warmOps precomputes a connection's request cycle, so the client spends
// its time on HTTP rather than on building URLs.
func warmOps(e *env, rng *rand.Rand, n int) []warmOp {
	ops := make([]warmOp, n)
	user := func() *profile.Profile { return e.users[rng.Intn(len(e.users))] }
	for i := range ops {
		p := warmPairs[rng.Intn(len(warmPairs))]
		q := url.Values{}
		q.Set("older", p.older)
		q.Set("newer", p.newer)
		switch r := rng.Intn(100); {
		case r < 40:
			u, strat := user(), strategies[rng.Intn(len(strategies))]
			ops[i] = warmOp{url: recommendURL(e.st.base, p, u, strat, 3), route: rRecommend}
			if strat == "plain" {
				ops[i].rec = &sample{pair: p, user: u, k: 3}
			}
		case r < 55:
			for j := 0; j < 3; j++ {
				q.Add("member", userSpec(user()))
			}
			q.Set("agg", aggregations[rng.Intn(len(aggregations))])
			ops[i] = warmOp{url: e.st.base + "/recommend/group?" + q.Encode(), route: rGroup}
		case r < 70:
			for j := 0; j < 4; j++ {
				q.Add("user", userSpec(user()))
			}
			ops[i] = warmOp{url: e.st.base + "/notify?" + q.Encode(), route: rNotify}
		default:
			sub := e.subs[rng.Intn(len(e.subs))]
			ops[i] = warmOp{url: e.st.base + "/feed/" + sub.ID + "?after=0&limit=20", route: rFeed}
		}
	}
	return ops
}

func driveWarm(e *env, out *outcome) error {
	const cycle, sampleEvery, samplesPerConn = 4096, 61, 8
	conns := []*conn{e.newConn(connCapacity(e.o)), e.newConn(connCapacity(e.o))}
	opsByConn := make([][]warmOp, len(conns))
	for i := range conns {
		opsByConn[i] = warmOps(e, rand.New(rand.NewSource(e.o.seed*31+int64(i))), cycle)
	}
	samples := make([][]sample, len(conns))
	e.timed(out, conns, func(i int, c *conn, rg *region) {
		ops, plain := opsByConn[i], 0
		for n := 0; rg.live(c); n++ {
			op := ops[n%len(ops)]
			keep := false
			if op.rec != nil {
				plain++
				keep = plain%sampleEvery == 0 && len(samples[i]) < samplesPerConn
			}
			body, ok := c.do(http.MethodGet, op.url, nil, op.route, 0, keep)
			if keep && ok {
				s := *op.rec
				s.body = body
				samples[i] = append(samples[i], s)
			}
		}
	})
	for _, s := range samples {
		out.samples = append(out.samples, s...)
	}
	return nil
}

// ---------------------------------------------------------------------------
// cold-build: closed loop where every recommend names a pair never
// requested before, over a chain longer than the store LRU.

// coldRate sizes the chain: it is the cold pair builds per second the
// chain has fresh pairs for, about 1.3 times what the reference machine
// completes. A faster program may use them all before the deadline; the
// timed region then ends early and every rate is over the time it took.
const coldRate = 80

// coldBlock is how many consecutive versions make one block of the cold
// schedule. The service keeps every version a request paged in, so pairs
// drawn at random from the whole chain would find more of their versions
// resident the further a run got, and a run that built more pairs would do
// less work per request. The schedule takes the blocks in a random order
// and each block's pairs in a random order, so every block pages in its
// versions once and costs what every other block costs.
const coldBlock = 8

// coldBlockPairs is how many pairs of distance 1-3 a block holds.
const coldBlockPairs = 3*coldBlock - 6

func coldParams(o options) params {
	blocks := (coldRate*o.seconds + coldBlockPairs - 1) / coldBlockPairs
	base := blocks * coldBlock
	return params{chainLen: base + 120, baseLen: base, writeCommits: 120, subscribers: 10, distance: "1-3"}
}

// coldSchedule lists every pair of distance 1-3 within each block of the
// packed versions, block by block in a seeded random order.
func coldSchedule(e *env) []pair {
	rng := rand.New(rand.NewSource(e.o.seed*17 + 3))
	var ps []pair
	for _, b := range rng.Perm(e.p.baseLen / coldBlock) {
		block := make([]pair, 0, coldBlockPairs)
		for i := b * coldBlock; i < (b+1)*coldBlock; i++ {
			for d := 1; d <= 3 && i+d < (b+1)*coldBlock; d++ {
				block = append(block, pair{versionID(i), versionID(i + d)})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ps = append(ps, block...)
	}
	return ps
}

func driveCold(e *env, out *outcome) error {
	const sampleEvery, samplesPerConn = 25, 4
	sched := coldSchedule(e)
	var next atomic.Int64
	conns := []*conn{e.newConn(connCapacity(e.o)), e.newConn(connCapacity(e.o))}
	samples := make([][]sample, len(conns))
	e.timed(out, conns, func(i int, c *conn, rg *region) {
		rng := rand.New(rand.NewSource(e.o.seed*31 + int64(i)))
		for n := 0; rg.live(c); n++ {
			j := next.Add(1) - 1
			if int(j) >= len(sched) {
				rg.halt(c, fmt.Sprintf("all %d fresh pairs were requested", len(sched)))
				return
			}
			u := e.users[rng.Intn(len(e.users))]
			keep := n%sampleEvery == 0 && len(samples[i]) < samplesPerConn
			body, ok := c.do(http.MethodGet, recommendURL(e.st.base, sched[j], u, "plain", 3), nil, rRecommend, 0, keep)
			if keep && ok {
				samples[i] = append(samples[i], sample{pair: sched[j], user: u, k: 3, body: body})
			}
		}
	})
	for _, s := range samples {
		out.samples = append(out.samples, s...)
	}
	return nil
}

// ---------------------------------------------------------------------------
// ingest-fanout: one closed-loop committer beside a fixed-rate open-loop
// reader.

// ingestCommitRate sizes the chain: it is the commits per second the chain
// has versions for, about 1.4 times what the reference machine acks. When
// a faster program commits them all, the timed region ends early.
const ingestCommitRate = 40

func ingestParams(o options) params {
	return params{chainLen: 2 + ingestCommitRate*o.seconds, baseLen: 2, subscribers: 10,
		readerRate: 40, distance: "1"}
}

func ingestWarm(e *env, c *conn) error {
	if _, ok := c.do(http.MethodGet, recommendURL(e.st.base, pair{"v1", "v2"}, e.users[0], "plain", 3), nil, rRecommend, 0, false); !ok {
		return fmt.Errorf("warming v1->v2: %s", c.last)
	}
	return nil
}

// commit posts version i and reports whether the server acked it.
func (e *env) commit(c *conn, i int, due int64) bool {
	id := versionID(i)
	body, ok := c.do(http.MethodPost, e.st.base+"/versions/"+id, e.in.bodies[i], rCommit, due, true)
	if !ok {
		return false
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.ID != id {
		c.fail(fmt.Sprintf("commit %s acked as %q (%v)", id, resp.ID, err))
		return false
	}
	return true
}

func driveIngest(e *env, out *outcome) error {
	const sampleEvery, maxSamples = 16, 16
	committer, reader := e.newConn(connCapacity(e.o)), e.newConn(connCapacity(e.o))
	var newest atomic.Pointer[pair]
	newest.Store(&pair{"v1", "v2"})
	var acked []string
	var samples []sample
	interval := time.Duration(float64(time.Second) / e.p.readerRate)
	e.timed(out, []*conn{committer, reader}, func(i int, c *conn, rg *region) {
		if i == 0 {
			for v := e.p.baseLen; rg.live(c); v++ {
				if v >= e.p.chainLen {
					rg.halt(c, fmt.Sprintf("all %d versions were committed", e.p.chainLen-e.p.baseLen))
					return
				}
				if e.commit(c, v, 0) {
					acked = append(acked, versionID(v))
					newest.Store(&pair{versionID(v - 1), versionID(v)})
				}
			}
			return
		}
		rng := rand.New(rand.NewSource(e.o.seed*31 + 7))
		cursors := make(map[string]uint64)
		start := c.now()
		for n := 0; ; n++ {
			due := start + int64(n)*int64(interval)
			if due >= rg.deadline || rg.halted.Load() {
				return
			}
			if wait := time.Duration(due - c.now()); wait > 0 {
				time.Sleep(wait)
			}
			if n%10 != 9 {
				sub := e.subs[rng.Intn(len(e.subs))]
				u := e.st.base + "/feed/" + sub.ID + "?limit=100&after=" + strconv.FormatUint(cursors[sub.ID], 10)
				body, ok := c.do(http.MethodGet, u, nil, rFeed, due, true)
				var resp struct {
					Next uint64 `json:"next"`
				}
				if ok && json.Unmarshal(body, &resp) == nil {
					cursors[sub.ID] = resp.Next
				}
				continue
			}
			p := *newest.Load()
			usr := e.users[rng.Intn(len(e.users))]
			keep := n%(10*sampleEvery) == 9 && len(samples) < maxSamples
			body, ok := c.do(http.MethodGet, recommendURL(e.st.base, p, usr, "plain", 3), nil, rRecommend, due, keep)
			if keep && ok {
				samples = append(samples, sample{pair: p, user: usr, k: 3, body: body})
			}
		}
	})
	out.acked = append(out.acked, acked...)
	out.samples = append(out.samples, samples...)
	return nil
}

// ---------------------------------------------------------------------------
// Shared phases

// writePhase commits the versions after the packed base, one at a time on
// an otherwise idle dataset, so every workload reports commit latency; the
// fan-outs also fill the feeds the reads poll.
func (e *env) writePhase(out *outcome) error {
	c := e.newConn(e.p.writeCommits + 8)
	defer c.close()
	// Collect the set-ups' garbage now rather than during the commits.
	runtime.GC()
	w := e.openWindow()
	for v := e.p.baseLen; v < e.p.baseLen+e.p.writeCommits; v++ {
		if e.commit(c, v, 0) {
			out.acked = append(out.acked, versionID(v))
		}
	}
	e.closeWindow(w, c)
	out.write = w
	out.noteConn(c)
	return e.pollTraces()
}

// region is the timed region's shared state: its deadline, and a halt a
// workload raises when it runs out of inputs, which ends the region early
// for every connection.
type region struct {
	deadline int64
	halted   atomic.Bool
	why      string // set by the first halt
	at       int64
	once     sync.Once
}

// live reports whether c should issue another request.
func (rg *region) live(c *conn) bool { return !rg.halted.Load() && c.now() < rg.deadline }

func (rg *region) halt(c *conn, why string) {
	rg.once.Do(func() { rg.why, rg.at = why, c.now() })
	rg.halted.Store(true)
}

// timed runs fn on every connection until the deadline or a halt. In a
// traced run the region is cut into alternating untraced and traced
// slices, so the tracing overhead is measured on the same stack and the
// same state.
func (e *env) timed(out *outcome, conns []*conn, fn func(i int, c *conn, rg *region)) {
	out.heap0 = readHeap()
	w := e.openWindow()
	dur := int64(e.o.seconds) * int64(time.Second)
	rg := &region{deadline: w.start + dur}
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			fn(i, c, rg)
		}(i, c)
	}
	done := make(chan struct{})
	var slicer sync.WaitGroup
	if e.mode != nil {
		slicer.Add(1)
		go func() {
			defer slicer.Done()
			e.slice(out, w.start, dur, done)
		}()
	}
	wg.Wait()
	close(done)
	slicer.Wait()
	if e.mode != nil {
		e.mode.Store(true)
	}
	e.closeWindow(w, conns...)
	out.heap1 = readHeap()
	out.timed = w
	if rg.halted.Load() {
		out.halted = fmt.Sprintf("%s after %.2fs; the timed region ended early", rg.why, float64(rg.at-w.start)/1e9)
	}
	out.lags, out.lagKind = generatorLag(conns)
	for _, c := range conns {
		out.noteConn(c)
		c.close()
	}
}

// slice switches tracing for half-second slices of the timed region, odd
// ones traced, until the region ends or done is closed. Short slices keep
// both kinds in a region that halts early and in the same machine state.
func (e *env) slice(out *outcome, start, dur int64, done <-chan struct{}) {
	slices := int64(2 * e.o.seconds)
	for k := int64(0); k < slices; k++ {
		e.mode.Store(k%2 == 1)
		lo := start + k*dur/slices
		hi := start + (k+1)*dur/slices
		out.slices = append(out.slices, interval{lo, hi})
		t := time.NewTimer(time.Duration(hi - int64(time.Since(e.epoch))))
		select {
		case <-done:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// generatorLag measures how late the load generator ran, in milliseconds.
// An open-loop connection is late by the time from a request's due time to
// its send; when there is none, a closed loop is late by the gap between a
// response and the next request on the same connection.
func generatorLag(conns []*conn) ([]float64, string) {
	var open, closed []float64
	for _, c := range conns {
		isOpen := false
		for _, r := range c.recs {
			if r.due != r.start {
				isOpen = true
				break
			}
		}
		for i, r := range c.recs {
			switch {
			case isOpen:
				open = append(open, float64(r.start-r.due)/1e6)
			case i > 0:
				closed = append(closed, float64(r.start-c.recs[i-1].end)/1e6)
			}
		}
	}
	if len(open) > 0 {
		return open, "open loop, send minus due"
	}
	return closed, "closed loop, response to next send"
}
