package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"evorec/internal/profile"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // scratch directory inside the checkout
}

// requestProfiles is how many user profiles the requests draw from.
const requestProfiles = 64

// params size one workload. Every number is recorded with the result.
type params struct {
	chainLen     int     // versions generated
	baseLen      int     // versions packed into the store before serving
	writeCommits int     // serial commits of the write phase (read workloads)
	subscribers  int     // feed subscriber population
	readerRate   float64 // open-loop reads per second (ingest-fanout)
	distance     string  // pair distance the reads use
}

// env is one set-up stack with its inputs.
type env struct {
	o     options
	p     params
	in    *inputs
	users []*profile.Profile // request profiles
	subs  []*profile.Profile // feed subscribers
	st    *stack
	epoch time.Time
	mode  *atomic.Bool // traced slice flag; nil in end-to-end runs
	rec   *recorder

	setupRecs []opRec    // the set-up connection's requests (subscribes, warm-up)
	tail      *traceTail // the server's traces, read after each phase (traced run)
	conns     int        // connections opened so far
}

// newConn opens a workload connection; at most two are open at once. Each
// gets a fresh ID, so request IDs stay unique across the run.
func (e *env) newConn(capacity int) *conn {
	e.conns++
	return newConn(e.conns, e.epoch, e.mode, capacity)
}

// setup builds the inputs and the stack: KB generation, store pack,
// open/WAL replay, subscriber population and warm-up (warm is the
// workload's own warm-up, run on the set-up connection).
func setup(o options, p params, dir string, epoch time.Time, traced bool, warm func(*env, *conn) error) (*env, error) {
	e := &env{o: o, p: p, epoch: epoch, rec: newRecorder(epoch)}
	if traced {
		e.mode = new(atomic.Bool)
		e.mode.Store(true)
	}
	in, vs, err := genInputs(o.seed, p.chainLen, p.baseLen)
	if err != nil {
		return nil, err
	}
	e.in = in
	rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	if e.users, err = genProfiles(in.schema, requestProfiles, rng); err != nil {
		return e, err
	}
	if e.subs, err = genProfiles(in.schema, p.subscribers, rng); err != nil {
		return e, err
	}
	for i, s := range e.subs {
		s.ID = "sub" + strconv.Itoa(i)
	}
	if e.st, err = bootStack(dir, vs, traced); err != nil {
		return e, err
	}
	c := e.newConn(0)
	defer c.close()
	for _, s := range e.subs {
		body, _ := json.Marshal(map[string]string{"interests": interestSpec(s)}) // a string map always marshals
		if _, ok := c.do(http.MethodPut, e.st.base+"/subscribers/"+s.ID, body, rSubscribe, 0, false); !ok {
			return e, fmt.Errorf("subscribing %s: %s", s.ID, c.last)
		}
	}
	if warm != nil {
		if err := warm(e, c); err != nil {
			return e, err
		}
	}
	e.setupRecs = c.recs
	if traced {
		e.tail = &traceTail{url: e.st.opsBase}
	}
	return e, e.pollTraces()
}

// pollTraces reads the traces the server published since the last poll.
// The ring holds the newest traceRing traces, so the traced run polls
// after every phase; the timed region may overflow it, which only thins
// the samples (the count lost is reported).
func (e *env) pollTraces() error {
	if e.tail == nil {
		return nil
	}
	defer http.DefaultClient.CloseIdleConnections()
	return e.tail.poll(http.DefaultClient)
}

// teardown stops the stack and frees the commit bodies. The stack's files
// stay until the run exits: deleting them makes the filesystem discard
// blocks while the next phase is timed.
func (e *env) teardown() error {
	if e.in != nil {
		defer e.in.arena.free()
	}
	if e.st == nil {
		return nil
	}
	return e.st.shutdown()
}

// heapStats forces a collection and reads the live heap, the cumulative
// malloc count and the GC cycle count.
type heapStats struct {
	live    uint64
	mallocs uint64
	numGC   uint32
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid who and pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readHeap() heapStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	hs := heapStats{mallocs: m.Mallocs, numGC: m.NumGC}
	runtime.GC()
	runtime.ReadMemStats(&m)
	hs.live = m.HeapAlloc
	return hs
}

// spansPath is where the traced run writes its spans.
func spansPath(o options) string {
	return filepath.Join(o.workDir, "..", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}
