// Package semantics implements the paper's semantic importance measures
// (§II-d): relative cardinality of property edges, in/out-centrality of
// classes, and relevance, which extends centrality over the class
// neighborhood with instance weighting (after Troullinou et al. [15]).
//
// All quantities are computed from instance-level data: the generator (or a
// real dataset) types resources with rdf:type and links them with data
// properties; the Analyzer aggregates these links into class-pair connection
// statistics in a single pass.
package semantics

import (
	"math"
	"sort"

	"evorec/internal/rdf"
	"evorec/internal/schema"
)

// EdgeKey identifies a class-level property edge: property P connecting
// instances of class From to instances of class To.
type EdgeKey struct {
	P, From, To rdf.Term
}

// Analyzer holds the connection statistics of one version and answers
// semantic importance queries. Build one per version with NewAnalyzer; it is
// immutable afterwards and safe for concurrent reads.
type Analyzer struct {
	sch *schema.Schema
	// conn counts instance connections per (property, fromClass, toClass).
	conn map[EdgeKey]int
	// totalConn counts, per class, the total instance-link endpoints its
	// instances participate in (in either direction).
	totalConn map[rdf.Term]int
	// inEdges / outEdges list, per class, the distinct class-level property
	// edges arriving at / leaving the class.
	inEdges, outEdges map[rdf.Term][]EdgeKey
}

// NewAnalyzer scans g once and builds the connection statistics. Only
// object-link triples whose subject and object both carry rdf:type
// assertions contribute; literal-valued triples carry no class-to-class
// signal and are skipped.
func NewAnalyzer(g *rdf.Graph, sch *schema.Schema) *Analyzer {
	a := &Analyzer{
		sch:       sch,
		conn:      make(map[EdgeKey]int),
		totalConn: make(map[rdf.Term]int),
		inEdges:   make(map[rdf.Term][]EdgeKey),
		outEdges:  make(map[rdf.Term][]EdgeKey),
	}
	typeCache := make(map[rdf.Term][]rdf.Term)
	typesOf := func(x rdf.Term) []rdf.Term {
		if ts, ok := typeCache[x]; ok {
			return ts
		}
		ts := sch.TypesOf(x)
		typeCache[x] = ts
		return ts
	}
	// Sorted predicate order keeps floating-point summation order (and thus
	// every derived score) bit-for-bit reproducible across runs.
	preds := g.Predicates()
	rdf.SortTerms(preds)
	for _, p := range preds {
		if !p.IsIRI() || !sch.IsProperty(p) {
			continue
		}
		g.ForEachMatch(rdf.Term{}, p, rdf.Term{}, func(t rdf.Triple) bool {
			if t.O.IsLiteral() {
				return true
			}
			fromTypes := typesOf(t.S)
			toTypes := typesOf(t.O)
			if len(fromTypes) == 0 || len(toTypes) == 0 {
				return true
			}
			for _, fc := range fromTypes {
				for _, tc := range toTypes {
					k := EdgeKey{P: p, From: fc, To: tc}
					if a.conn[k] == 0 {
						a.outEdges[fc] = append(a.outEdges[fc], k)
						a.inEdges[tc] = append(a.inEdges[tc], k)
					}
					a.conn[k]++
				}
			}
			for _, fc := range fromTypes {
				a.totalConn[fc]++
			}
			for _, tc := range toTypes {
				a.totalConn[tc]++
			}
			return true
		})
	}
	// Edge-list order depends on map iteration during the scan; sort so the
	// centrality summations are deterministic.
	for _, edges := range a.inEdges {
		sortEdgeKeys(edges)
	}
	for _, edges := range a.outEdges {
		sortEdgeKeys(edges)
	}
	return a
}

func sortEdgeKeys(ks []EdgeKey) {
	sort.Slice(ks, func(i, j int) bool {
		if c := ks[i].P.Compare(ks[j].P); c != 0 {
			return c < 0
		}
		if c := ks[i].From.Compare(ks[j].From); c != 0 {
			return c < 0
		}
		return ks[i].To.Compare(ks[j].To) < 0
	})
}

// Schema returns the schema the analyzer was built over.
func (a *Analyzer) Schema() *schema.Schema { return a.sch }

// ConnectionCount returns the raw number of instance links for the edge.
func (a *Analyzer) ConnectionCount(k EdgeKey) int { return a.conn[k] }

// RelativeCardinality returns RC(e(from, to)) as defined in §II-d: the
// number of instance connections between the two classes through p, divided
// by the total number of connections the instances of the two classes have.
// It returns 0 when the classes have no connections at all.
func (a *Analyzer) RelativeCardinality(p, from, to rdf.Term) float64 {
	c := a.conn[EdgeKey{P: p, From: from, To: to}]
	if c == 0 {
		return 0
	}
	denom := a.totalConn[from] + a.totalConn[to]
	if denom == 0 {
		return 0
	}
	return float64(c) / float64(denom)
}

// InCentrality returns Cin(c): the sum of the relative cardinalities of the
// class-level property edges arriving at c, weighted by the number of
// distinct incoming properties (the "combined with the number of incoming
// properties" clause of §II-d).
func (a *Analyzer) InCentrality(c rdf.Term) float64 {
	return a.directionalCentrality(c, a.inEdges[c])
}

// OutCentrality returns Cout(c), the outgoing counterpart of InCentrality.
func (a *Analyzer) OutCentrality(c rdf.Term) float64 {
	return a.directionalCentrality(c, a.outEdges[c])
}

func (a *Analyzer) directionalCentrality(c rdf.Term, edges []EdgeKey) float64 {
	if len(edges) == 0 {
		return 0
	}
	distinctProps := make(map[rdf.Term]struct{})
	sum := 0.0
	for _, e := range edges {
		distinctProps[e.P] = struct{}{}
		sum += a.RelativeCardinality(e.P, e.From, e.To)
	}
	return sum * float64(len(distinctProps))
}

// Centrality returns the overall centrality Cin(c) + Cout(c).
func (a *Analyzer) Centrality(c rdf.Term) float64 {
	return a.InCentrality(c) + a.OutCentrality(c)
}

// Relevance extends centrality over the neighborhood (§II-d): the relevance
// of a class is its own centrality plus the mean centrality of its schema
// neighbors, scaled by log(1 + instance count) so that heavily-instantiated
// classes matter more. The exact combination follows the summarization
// approach of [15] adapted to our centrality definition; the weighting
// choices are documented in DESIGN.md.
func (a *Analyzer) Relevance(c rdf.Term) float64 {
	return a.RelevanceFrom(c, a.sch.Neighbors(c), a.Centrality)
}

// RelevanceFrom is Relevance with c's schema neighborhood and the class
// centrality supplied by the caller, for callers that compute both once per
// version. Given neighbors equal to Schema().Neighbors(c) and a centrality
// function returning what Centrality returns, it equals Relevance(c) bit
// for bit: the summation order is the same.
func (a *Analyzer) RelevanceFrom(c rdf.Term, neighbors []rdf.Term, centrality func(rdf.Term) float64) float64 {
	own := centrality(c)
	nsum := 0.0
	for _, n := range neighbors {
		nsum += centrality(n)
	}
	if len(neighbors) > 0 {
		own += nsum / float64(len(neighbors))
	}
	instances := 0
	if cl, ok := a.sch.Class(c); ok {
		instances = cl.InstanceCount
	}
	return own * math.Log1p(float64(instances))
}

// PropertyCentrality returns the importance of a property: the sum of the
// relative cardinalities of all class-level edges it realizes. This is the
// "extension to properties" the paper sketches at the end of §II.
func (a *Analyzer) PropertyCentrality(p rdf.Term) float64 {
	var keys []EdgeKey
	for k, c := range a.conn {
		if k.P == p && c > 0 {
			keys = append(keys, k)
		}
	}
	sortEdgeKeys(keys) // deterministic summation order
	sum := 0.0
	for _, k := range keys {
		sum += a.RelativeCardinality(k.P, k.From, k.To)
	}
	return sum
}

// AllPropertyCentralities returns PropertyCentrality of every property of
// the schema, keyed by term, from one pass over the connection statistics
// instead of one pass per property. Each property's edges are summed in
// the order PropertyCentrality sums them, so the values are bit-identical.
func (a *Analyzer) AllPropertyCentralities() map[rdf.Term]float64 {
	byProp := make(map[rdf.Term][]EdgeKey)
	for k, c := range a.conn {
		if c > 0 {
			byProp[k.P] = append(byProp[k.P], k)
		}
	}
	out := make(map[rdf.Term]float64, a.sch.NumProperties())
	for _, p := range a.sch.PropertyTerms() {
		keys := byProp[p]
		sortEdgeKeys(keys)
		sum := 0.0
		for _, k := range keys {
			sum += a.RelativeCardinality(k.P, k.From, k.To)
		}
		out[p] = sum
	}
	return out
}

// AllCentralities returns the centrality of every class, keyed by term.
func (a *Analyzer) AllCentralities() map[rdf.Term]float64 {
	out := make(map[rdf.Term]float64, a.sch.NumClasses())
	for _, c := range a.sch.ClassTerms() {
		out[c] = a.Centrality(c)
	}
	return out
}

// AllRelevances returns the relevance of every class, keyed by term.
func (a *Analyzer) AllRelevances() map[rdf.Term]float64 {
	out := make(map[rdf.Term]float64, a.sch.NumClasses())
	for _, c := range a.sch.ClassTerms() {
		out[c] = a.Relevance(c)
	}
	return out
}
