package measures_test

import (
	"math"
	"sync"
	"testing"

	"evorec/internal/measures"
	"evorec/internal/recommend"
	"evorec/internal/synth"
)

// TestBuildItemsParallelSharedAnalyses runs BuildItemsParallel on several
// contexts at once whose pairs share versions, so the measures of different
// pairs race to fill the same per-version memos. Under -race this pins the
// memos' synchronization; the items must equal a serial build over private
// analyses bit for bit.
func TestBuildItemsParallelSharedAnalyses(t *testing.T) {
	vs, _, err := synth.GenerateVersions(synth.Small(), synth.EvolveConfig{Ops: 40, Locality: 0.6}, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]*measures.VersionAnalysis, vs.Len())
	for i := range shared {
		shared[i] = measures.NewVersionAnalysis(vs.At(i))
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}, {0, 3}}
	reg := measures.NewExtendedRegistry()
	got := make([][]recommend.Item, len(pairs))
	var wg sync.WaitGroup
	for k, p := range pairs {
		wg.Add(1)
		go func(k int, p [2]int) {
			defer wg.Done()
			got[k] = recommend.BuildItemsParallel(measures.NewPairContext(shared[p[0]], shared[p[1]]), reg)
		}(k, p)
	}
	wg.Wait()
	for k, p := range pairs {
		want := recommend.BuildItems(measures.NewContext(vs.At(p[0]), vs.At(p[1])), reg)
		if len(got[k]) != len(want) {
			t.Fatalf("pair %v: %d items, want %d", p, len(got[k]), len(want))
		}
		for i, w := range want {
			g := got[k][i]
			if g.ID() != w.ID() || len(g.Scores) != len(w.Scores) {
				t.Fatalf("pair %v item %d: %s with %d scores, want %s with %d", p, i, g.ID(), len(g.Scores), w.ID(), len(w.Scores))
			}
			for term, v := range w.Scores {
				if math.Float64bits(g.Scores[term]) != math.Float64bits(v) ||
					math.Float64bits(g.Vector[term]) != math.Float64bits(w.Vector[term]) {
					t.Fatalf("pair %v %s %s: score %v vector %v, want %v and %v",
						p, w.ID(), term, g.Scores[term], g.Vector[term], v, w.Vector[term])
				}
			}
		}
	}
}
