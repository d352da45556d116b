package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Routes the benchmark drives, by short name, with the label the server's
// metrics and traces use for them.
const (
	rRecommend uint8 = iota
	rGroup
	rNotify
	rFeed
	rCommit
	rSubscribe
	numRoutes
)

var routeNames = [numRoutes]string{"recommend", "recommend_group", "notify", "feed", "commit", "subscribe"}

var routeLabels = [numRoutes]string{
	"/v1/datasets/{name}/recommend",
	"/v1/datasets/{name}/recommend/group",
	"/v1/datasets/{name}/notify",
	"/v1/datasets/{name}/feed/{id}",
	"/v1/datasets/{name}/versions/{id}",
	"/v1/datasets/{name}/subscribers/{id}",
}

// isRead reports whether a route counts toward the read_* metrics: the
// recommend family and feed polls.
func isRead(r uint8) bool { return r <= rFeed }

// unsampledParent is a valid W3C traceparent with the sampled flag off. A
// tracer honours it and records nothing, which is how the traced run's
// untraced slices switch tracing off per request at sample rate 1.
const unsampledParent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"

// opRec is one operation as the client saw it. Times are nanoseconds since
// the run's epoch; the record holds no pointers so a preallocated slice of
// them costs the garbage collector nothing.
type opRec struct {
	due, start, end int64
	seq             uint32 // request sequence on its connection (request ID)
	conn            uint8
	route           uint8
	traced          bool
	ok              bool
}

func (r opRec) latency() time.Duration { return time.Duration(r.end - r.due) }

// conn is one client connection with its own transport, so the benchmark
// holds exactly as many connections as it has conns.
type conn struct {
	id    int
	hc    *http.Client
	epoch time.Time
	recs  []opRec
	seq   uint32
	// mode, when non-nil, says whether the current slice of a traced run is
	// traced; nil means an end-to-end run, where requests carry no tracing
	// headers at all.
	mode *atomic.Bool
	errs int // transport errors and non-2xx responses
	last string
}

func newConn(id int, epoch time.Time, mode *atomic.Bool, capacity int) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{id: id, hc: &http.Client{Transport: tr, Timeout: time.Minute}, epoch: epoch, mode: mode,
		recs: make([]opRec, 0, capacity)}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

func (c *conn) now() int64 { return int64(time.Since(c.epoch)) }

// requestID names a traced request so its server trace can be matched.
func requestID(conn int, seq uint32) string {
	return "pb" + strconv.Itoa(conn) + "-" + strconv.FormatUint(uint64(seq), 10)
}

// do issues one request and records it. due is when an open loop meant to
// send it (0 = now, closed loop). The body is returned only when keep is
// set; otherwise it is drained and discarded.
func (c *conn) do(method, url string, body []byte, route uint8, due int64, keep bool) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		c.fail(fmt.Sprintf("%s %s: %v", method, url, err))
		return nil, false
	}
	c.seq++
	rec := opRec{seq: c.seq, conn: uint8(c.id), route: route}
	if c.mode != nil {
		if c.mode.Load() {
			rec.traced = true
			req.Header.Set("X-Request-Id", requestID(c.id, c.seq))
		} else {
			req.Header.Set("Traceparent", unsampledParent)
		}
	}
	rec.start = c.now()
	rec.due = due
	if due == 0 {
		rec.due = rec.start
	}
	resp, err := c.hc.Do(req)
	var out []byte
	if err == nil {
		if keep {
			out, err = io.ReadAll(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
	}
	rec.end = c.now()
	switch {
	case err != nil:
		c.fail(fmt.Sprintf("%s %s: %v", method, url, err))
	case resp.StatusCode/100 != 2:
		c.fail(fmt.Sprintf("%s %s: status %d", method, url, resp.StatusCode))
	default:
		rec.ok = true
	}
	c.recs = append(c.recs, rec)
	return out, rec.ok
}

func (c *conn) fail(msg string) {
	c.errs++
	c.last = msg
}
