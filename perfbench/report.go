package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// toMS and toUS convert durations to milliseconds and microseconds.
func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func toUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps reported values in insertion order for the human report.
type metrics struct {
	order []string
	m     map[string]metric
	notes map[string]string
}

func newMetrics() *metrics {
	return &metrics{m: make(map[string]metric), notes: make(map[string]string)}
}

func (ms *metrics) set(name string, v float64, unit string) {
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{v, unit}
}

// note attaches the sample count or source a value was computed from.
func (ms *metrics) note(name, format string, args ...any) {
	ms.notes[name] = fmt.Sprintf(format, args...)
}

func (ms *metrics) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range ms.order {
		m := ms.m[name]
		fmt.Fprintf(w, "  %-40s %14.6g %-6s %s\n", name, m.Value, m.Unit, ms.notes[name])
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick selects the named metrics for the result line; a missing or
// non-finite one is an error, since the result must carry every name.
func (ms *metrics) pick(names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := ms.m[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, m.Value)
		}
		out[n] = m
	}
	return out, nil
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
