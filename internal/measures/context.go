package measures

import (
	"evorec/internal/delta"
	"evorec/internal/graphx"
	"evorec/internal/rdf"
	"evorec/internal/schema"
	"evorec/internal/semantics"
)

// Context carries everything a measure may need about one (older, newer)
// version pair: the raw graphs, the extracted schemas, the low-level delta
// with its attribution, the semantic analyzers and the class-level
// structural graphs. Building a Context is the expensive step; evaluating
// the individual measures on it is cheap, so the engine builds one Context
// per version pair and evaluates the whole measure set against it.
//
// The per-version fields are taken from OlderAnalysis and NewerAnalysis,
// which contexts of pairs sharing a version may share (see
// VersionAnalysis); only the delta and its attribution belong to the pair.
type Context struct {
	Older, Newer                 *rdf.Version
	OlderSchema, NewerSchema     *schema.Schema
	Delta                        *delta.Delta
	Attr                         *delta.Attribution
	OlderSem, NewerSem           *semantics.Analyzer
	OlderStruct, NewerStruct     *graphx.Graph
	OlderAnalysis, NewerAnalysis *VersionAnalysis
}

// NewContext computes all derived structures for the version pair, analyzing
// each version afresh.
func NewContext(older, newer *rdf.Version) *Context {
	return NewPairContext(NewVersionAnalysis(older), NewVersionAnalysis(newer))
}

// NewPairContext builds the context of the pair from its versions' analyses,
// computing only the pair's delta and attribution.
func NewPairContext(older, newer *VersionAnalysis) *Context {
	d := delta.ComputeVersions(older.Version, newer.Version)
	return &Context{
		Older:         older.Version,
		Newer:         newer.Version,
		OlderSchema:   older.Schema,
		NewerSchema:   newer.Schema,
		Delta:         d,
		Attr:          delta.Attribute(d),
		OlderSem:      older.Sem,
		NewerSem:      newer.Sem,
		OlderStruct:   older.Struct,
		NewerStruct:   newer.Struct,
		OlderAnalysis: older,
		NewerAnalysis: newer,
	}
}

// UnionClasses returns the classes present in either version, sorted.
func (c *Context) UnionClasses() []rdf.Term {
	return unionTerms(c.OlderAnalysis.ClassTerms(), c.NewerAnalysis.ClassTerms())
}

// UnionProperties returns the properties present in either version, sorted.
func (c *Context) UnionProperties() []rdf.Term {
	return unionTerms(c.OlderAnalysis.PropertyTerms(), c.NewerAnalysis.PropertyTerms())
}

// UnionNeighbors returns the paper's two-version neighborhood N_{V1,V2}(n):
// the union of n's schema neighborhoods in the older and newer versions.
func (c *Context) UnionNeighbors(n rdf.Term) []rdf.Term {
	return unionTerms(c.OlderAnalysis.Neighbors(n), c.NewerAnalysis.Neighbors(n))
}

// unionTerms merges two sorted, duplicate-free term lists into a new
// sorted, duplicate-free list.
func unionTerms(a, b []rdf.Term) []rdf.Term {
	out := make([]rdf.Term, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := a[0].Compare(b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}
