package core

import (
	"testing"

	"evorec/internal/synth"
)

// chainEngine ingests a seeded chain of m versions, v1..vm.
func chainEngine(t *testing.T, m int) *Engine {
	t.Helper()
	e := New(Config{Clock: fixedClock()})
	vs, _, err := synth.GenerateVersions(synth.Small(), synth.EvolveConfig{Ops: 40, Locality: 0.8}, m-1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestAll(vs); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestOverlappingPairsShareAnalyses builds every distance-1–3 pair of a
// chain: n overlapping pairs over m versions analyze each version once, and
// pairs meeting at a version hold the same analysis.
func TestOverlappingPairsShareAnalyses(t *testing.T) {
	const m = 6
	e := chainEngine(t, m)
	ids := e.Versions().IDs()
	n := 0
	for dist := 1; dist <= 3; dist++ {
		for i := 0; i+dist < m; i++ {
			if _, err := e.Items(ids[i], ids[i+dist]); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if got := e.ContextBuilds(); got != n {
		t.Fatalf("ContextBuilds = %d, want %d", got, n)
	}
	if got := e.anBuilds; got != m {
		t.Fatalf("%d pairs over %d versions built %d analyses, want %d", n, m, got, m)
	}
	a, _ := e.Context("v1", "v2")
	b, _ := e.Context("v2", "v4")
	if a.NewerAnalysis != b.OlderAnalysis {
		t.Fatal("pairs meeting at v2 must share its analysis")
	}
}

// TestInvalidateVersionRebuildsAnalysis: after InvalidateVersion the next
// pair reading the version analyzes it afresh, while the other versions
// keep theirs.
func TestInvalidateVersionRebuildsAnalysis(t *testing.T) {
	e := chainEngine(t, 3)
	before, err := e.Context("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.anBuilds; got != 2 {
		t.Fatalf("AnalysisBuilds = %d, want 2", got)
	}
	e.InvalidateVersion("v2")
	after, err := e.Context("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.anBuilds; got != 3 {
		t.Fatalf("after invalidating v2: AnalysisBuilds = %d, want 3", got)
	}
	if after.NewerAnalysis == before.NewerAnalysis {
		t.Fatal("invalidated version must get a fresh analysis")
	}
	if after.OlderAnalysis != before.OlderAnalysis {
		t.Fatal("v1's analysis must survive v2's invalidation")
	}
	if _, err := e.analysis("v9"); err == nil {
		t.Fatal("unknown version must fail")
	}
}
