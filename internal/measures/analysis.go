package measures

import (
	"sync"

	"evorec/internal/graphx"
	"evorec/internal/rdf"
	"evorec/internal/schema"
	"evorec/internal/semantics"
)

// VersionAnalysis is the per-version half of a measure context: one
// version's schema, semantic analyzer and class-level structural graph,
// plus the per-version vectors the default measures difference. Every
// structural and semantic measure of §II has the form |f(newer) − f(older)|
// with f a function of one version, so a version taking part in several
// pairs needs f computed once; pair contexts built with NewPairContext
// share their versions' analyses instead of each owning two private ones.
//
// The vectors are computed on first use, each behind its own sync.Once, by
// the same functions and in the same summation order as the direct calls
// (Graph.Betweenness, Analyzer.Centrality, Analyzer.Relevance, ...), so a
// memoized value is bit-identical to the direct one. Lookups of terms the
// version does not know fall back to those direct calls. A VersionAnalysis
// is safe for concurrent use.
type VersionAnalysis struct {
	Version *rdf.Version
	Schema  *schema.Schema
	Sem     *semantics.Analyzer
	Struct  *graphx.Graph

	classes, properties memo[[]rdf.Term]
	betweenness         memo[graphx.Scores]
	bridging            memo[graphx.Scores]
	centrality          memo[map[rdf.Term]float64]
	relevance           memo[map[rdf.Term]float64]
	propCentrality      memo[map[rdf.Term]float64]
	neighbors           memo[map[rdf.Term][]rdf.Term]
}

// memo is a value computed at most once, on first use.
type memo[T any] struct {
	once sync.Once
	v    T
}

func (m *memo[T]) get(f func() T) T {
	m.once.Do(func() { m.v = f() })
	return m.v
}

// NewVersionAnalysis extracts the version's schema and builds its semantic
// analyzer and structural class graph. The vectors are left for first use.
func NewVersionAnalysis(v *rdf.Version) *VersionAnalysis {
	sch := schema.Extract(v.Graph)
	return &VersionAnalysis{
		Version: v,
		Schema:  sch,
		Sem:     semantics.NewAnalyzer(v.Graph, sch),
		Struct:  graphx.FromAdjacencyIDs(sch.ClassGraphIDs()),
	}
}

// ClassTerms returns the version's classes, sorted. The slice is shared:
// callers must not modify it.
func (a *VersionAnalysis) ClassTerms() []rdf.Term {
	return a.classes.get(a.Schema.ClassTerms)
}

// PropertyTerms returns the version's properties, sorted. The slice is
// shared: callers must not modify it.
func (a *VersionAnalysis) PropertyTerms() []rdf.Term {
	return a.properties.get(a.Schema.PropertyTerms)
}

// Betweenness returns the structural graph's betweenness centrality. The
// map is shared: callers must not modify it.
func (a *VersionAnalysis) Betweenness() graphx.Scores {
	return a.betweenness.get(a.Struct.Betweenness)
}

// BridgingCentrality returns the structural graph's bridging centrality,
// built from the memoized betweenness. The map is shared: callers must not
// modify it.
func (a *VersionAnalysis) BridgingCentrality() graphx.Scores {
	return a.bridging.get(func() graphx.Scores {
		return a.Struct.BridgingCentralityFrom(a.Betweenness())
	})
}

// Centrality returns the semantic centrality of class c.
func (a *VersionAnalysis) Centrality(c rdf.Term) float64 {
	return lookup(a.centrality.get(a.Sem.AllCentralities), c, a.Sem.Centrality)
}

// Relevance returns the semantic relevance of class c.
func (a *VersionAnalysis) Relevance(c rdf.Term) float64 {
	all := a.relevance.get(func() map[rdf.Term]float64 {
		out := make(map[rdf.Term]float64, len(a.ClassTerms()))
		for _, c := range a.ClassTerms() {
			out[c] = a.Sem.RelevanceFrom(c, a.Neighbors(c), a.Centrality)
		}
		return out
	})
	return lookup(all, c, a.Sem.Relevance)
}

// PropertyCentrality returns the semantic centrality of property p.
func (a *VersionAnalysis) PropertyCentrality(p rdf.Term) float64 {
	return lookup(a.propCentrality.get(a.Sem.AllPropertyCentralities), p, a.Sem.PropertyCentrality)
}

// Neighbors returns the schema neighborhood of class c, sorted. The slice
// is shared: callers must not modify it.
func (a *VersionAnalysis) Neighbors(c rdf.Term) []rdf.Term {
	return lookup(a.neighbors.get(a.Schema.AllNeighbors), c, a.Schema.Neighbors)
}

// lookup reads t from a memoized vector, computing it directly when the
// vector does not cover t.
func lookup[V any](m map[rdf.Term]V, t rdf.Term, direct func(rdf.Term) V) V {
	if v, ok := m[t]; ok {
		return v
	}
	return direct(t)
}
