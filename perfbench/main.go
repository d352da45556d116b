// Command perfbench is evorec's end-to-end benchmark. It boots the real
// stack in-process (service.New and server.NewWithConfig on a loopback
// listener, as `evorec serve` wires them), drives one seeded workload over
// HTTP with at most two connections, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end ones, measured
// with tracing off. With -trace 1 the run is traced (server tracer at
// sample rate 1, benchmark-side spans around calls into each layer, a
// counting filesystem under the store and feeds) and the metrics are the
// per_layer ones; the spans are written to
// .bench_build/perfbench/spans/<workload>-seed<n>.jsonl.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program reads: the
// metric names each mode must print.
type benchmarkSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func run() error {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed region in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	o.trace = trace == 1
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	o.workDir = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(o.workDir)

	p := w.params(o)
	out, e, err := measure(o, p, w)
	if e != nil {
		if terr := e.teardown(); err == nil && terr != nil {
			err = terr
		}
	}
	if err != nil {
		return err
	}

	ms := newMetrics()
	endToEnd(out, ms)
	var names []string
	title := "end-to-end metrics (tracing off)"
	if o.trace {
		perLayer(e, out, ms)
		title = "metrics (traced run)"
		for _, m := range spec.PerLayer {
			names = append(names, m.Name)
		}
		path := spansPath(o)
		if err := writeSpans(path, e.rec, out.traces); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %s (%d benchmark spans, %d server traces)\n", path, len(e.rec.spans), len(out.traces))
	} else {
		for _, m := range spec.EndToEnd {
			names = append(names, m.Name)
		}
	}
	ctx := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"version_triples_mean": e.in.meanTriples, "chain_length": p.chainLen, "packed_versions": p.baseLen,
		"write_phase_commits": p.writeCommits, "pair_distance": p.distance,
		"subscribers": p.subscribers, "reader_rate_per_s": p.readerRate, "connections": 2,
		"live_heap_mib_after_setup": float64(out.setupHeap) / (1 << 20),
	}
	cj, _ := json.Marshal(ctx)
	fmt.Printf("context: %s\n", cj)
	if out.halted != "" {
		fmt.Printf("halted: %s\n", out.halted)
	}
	attribution(os.Stdout, out)
	timeline(os.Stdout, out)
	ms.print(os.Stdout, title)
	fmt.Printf("checks: %d run, %d failed; request failures: %d\n", out.checks, out.failed, out.errs)
	for _, m := range out.msgs {
		fmt.Printf("  check failed: %s\n", m)
	}
	if out.lastErr != "" {
		fmt.Printf("  last request failure: %s\n", out.lastErr)
	}
	picked, err := ms.pick(names)
	if err != nil {
		return err
	}
	failed := out.errs + out.failed
	return writeResult(os.Stdout, result{Correct: failed == 0, Attempted: out.attempted(),
		Failed: failed, Metrics: picked})
}

// measure sets up (several times in an end-to-end run, keeping the last
// stack), runs the write phase and the timed region, and finishes with the
// checks. The returned env must be torn down by the caller.
func measure(o options, p params, w workload) (*outcome, *env, error) {
	epoch := time.Now()
	setups := 3
	if o.trace {
		setups = 1
	}
	out := &outcome{seconds: o.seconds}
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.teardown(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		e, err = setup(o, p, filepath.Join(o.workDir, fmt.Sprintf("setup%d", i)), epoch, o.trace, w.warm)
		if err != nil {
			return nil, e, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
	}
	out.setupHeap = readHeap().live
	if w.writePhase {
		if err := e.writePhase(out); err != nil {
			return nil, e, err
		}
	}
	if err := w.drive(e, out); err != nil {
		return nil, e, err
	}
	if err := e.finish(out); err != nil {
		return nil, e, err
	}
	return out, e, nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
