package measures

import (
	"math"
	"testing"

	"evorec/internal/delta"
	"evorec/internal/graphx"
	"evorec/internal/rdf"
	"evorec/internal/schema"
	"evorec/internal/semantics"
	"evorec/internal/synth"
)

// synthChain is a seeded chain whose evolution adds and deletes classes and
// properties, so pairs hold terms only one side knows.
func synthChain(t testing.TB, versions int) *rdf.VersionStore {
	t.Helper()
	vs, _, err := synth.GenerateVersions(synth.Small(), synth.EvolveConfig{Ops: 40, Locality: 0.6}, versions-1, 17)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// directSide is one version's structures with nothing memoized: every
// quantity read from it is computed by the direct call.
type directSide struct {
	sch *schema.Schema
	sem *semantics.Analyzer
	g   *graphx.Graph
}

func newDirectSide(v *rdf.Version) directSide {
	sch := schema.Extract(v.Graph)
	return directSide{sch: sch, sem: semantics.NewAnalyzer(v.Graph, sch), g: graphx.FromAdjacencyIDs(sch.ClassGraphIDs())}
}

// setUnion is the set-then-sort union the measures used before the merge.
func setUnion(a, b []rdf.Term) []rdf.Term {
	set := make(map[rdf.Term]struct{}, len(a)+len(b))
	for _, t := range a {
		set[t] = struct{}{}
	}
	for _, t := range b {
		set[t] = struct{}{}
	}
	out := make([]rdf.Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

// directScores is the reference: measure id evaluated from per-version
// quantities computed afresh for this pair through Graph.Betweenness,
// Graph.BridgingCentrality, Analyzer.Centrality, Analyzer.Relevance,
// Analyzer.PropertyCentrality and Schema.Neighbors, as the measures did
// before per-version memoization.
func directScores(t *testing.T, id string, d *delta.Delta, attr *delta.Attribution, o, n directSide) Scores {
	t.Helper()
	classes := setUnion(o.sch.ClassTerms(), n.sch.ClassTerms())
	props := setUnion(o.sch.PropertyTerms(), n.sch.PropertyTerms())
	out := make(Scores)
	perClass := func(f func(c rdf.Term) float64) {
		for _, c := range classes {
			out[c] = f(c)
		}
	}
	perProp := func(f func(p rdf.Term) float64) {
		for _, p := range props {
			out[p] = f(p)
		}
	}
	shift := func(ov, nv graphx.Scores) {
		perClass(func(c rdf.Term) float64 { return math.Abs(nv[c] - ov[c]) })
	}
	switch id {
	case "change_count":
		total := func(x rdf.Term) float64 { return float64(attr.Changes(x).Total()) }
		perClass(total)
		perProp(total)
	case "neighborhood_change_count":
		perClass(func(c rdf.Term) float64 {
			return float64(attr.NeighborhoodChanges(setUnion(o.sch.Neighbors(c), n.sch.Neighbors(c))))
		})
	case "betweenness_shift":
		shift(o.g.Betweenness(), n.g.Betweenness())
	case "bridging_shift":
		shift(o.g.BridgingCentrality(), n.g.BridgingCentrality())
	case "centrality_shift":
		perClass(func(c rdf.Term) float64 { return math.Abs(n.sem.Centrality(c) - o.sem.Centrality(c)) })
	case "relevance_shift":
		perClass(func(c rdf.Term) float64 { return math.Abs(n.sem.Relevance(c) - o.sem.Relevance(c)) })
	case "property_centrality_shift":
		perProp(func(p rdf.Term) float64 {
			return math.Abs(n.sem.PropertyCentrality(p) - o.sem.PropertyCentrality(p))
		})
	case "pagerank_shift":
		shift(o.g.PageRank(prDamping, prEps, prMaxIter), n.g.PageRank(prDamping, prEps, prMaxIter))
	case "clustering_shift":
		shift(o.g.ClusteringCoefficient(), n.g.ClusteringCoefficient())
	case "instance_churn":
		perClass(func(rdf.Term) float64 { return 0 })
		for _, ts := range [][]rdf.Triple{d.Added, d.Deleted} {
			for _, tr := range ts {
				if _, ok := out[tr.O]; ok && tr.P == rdf.RDFType {
					out[tr.O]++
				}
			}
		}
	case "usage_shift":
		perProp(func(p rdf.Term) float64 {
			var ou, nu int
			if pr, ok := o.sch.Property(p); ok {
				ou = pr.UsageCount
			}
			if pr, ok := n.sch.Property(p); ok {
				nu = pr.UsageCount
			}
			return math.Abs(float64(nu - ou))
		})
	default:
		t.Fatalf("no direct reference for measure %q", id)
	}
	return out
}

// TestMemoizedMatchesDirect holds every default and extended measure,
// evaluated on contexts that share their versions' analyses, bitwise equal
// to the direct computation over every distance-1–3 pair of the chain.
func TestMemoizedMatchesDirect(t *testing.T) {
	vs := synthChain(t, 7)
	shared := make([]*VersionAnalysis, vs.Len())
	direct := make([]directSide, vs.Len())
	for i := range shared {
		shared[i] = NewVersionAnalysis(vs.At(i))
		direct[i] = newDirectSide(vs.At(i))
	}
	oneSided := 0
	for _, reg := range []*Registry{NewRegistry(), NewExtendedRegistry()} {
		for dist := 1; dist <= 3; dist++ {
			for i := 0; i+dist < vs.Len(); i++ {
				j := i + dist
				ctx := NewPairContext(shared[i], shared[j])
				d := delta.ComputeVersions(vs.At(i), vs.At(j))
				attr := delta.Attribute(d)
				if u := len(ctx.UnionClasses()); u > len(shared[i].ClassTerms()) || u > len(shared[j].ClassTerms()) {
					oneSided++
				}
				for id, got := range reg.EvaluateAll(ctx) {
					want := directScores(t, id, d, attr, direct[i], direct[j])
					if len(got) != len(want) {
						t.Fatalf("%s %s->%s: %d scores, direct %d", id, ctx.Older.ID, ctx.Newer.ID, len(got), len(want))
					}
					for term, w := range want {
						g, ok := got[term]
						if !ok || math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s %s->%s %s: memoized %v (present %v), direct %v",
								id, ctx.Older.ID, ctx.Newer.ID, term, g, ok, w)
						}
					}
				}
			}
		}
	}
	if oneSided == 0 {
		t.Fatal("no pair has a class only one version knows; the fallback path went untested")
	}
}
