// Package schema extracts the schema-level view of an RDF graph: the set of
// classes, the set of properties, the subsumption hierarchy, property
// domains/ranges, and instance statistics.
//
// All evolution measures in the paper are defined over classes and
// properties, so this package is the lens through which the measure layer
// sees a version. Extraction is a single pass plus index lookups and the
// result is immutable; the core engine caches one Schema per version.
package schema

import (
	"slices"
	"strings"

	"evorec/internal/rdf"
)

// Class describes one class of the knowledge base in one version.
type Class struct {
	// Term is the class IRI.
	Term rdf.Term
	// Supers lists the direct superclasses (rdfs:subClassOf objects).
	Supers []rdf.Term
	// Subs lists the direct subclasses.
	Subs []rdf.Term
	// InstanceCount is the number of rdf:type triples targeting the class.
	InstanceCount int
}

// Property describes one property of the knowledge base in one version.
type Property struct {
	// Term is the property IRI.
	Term rdf.Term
	// Domains lists declared rdfs:domain classes.
	Domains []rdf.Term
	// Ranges lists declared rdfs:range classes.
	Ranges []rdf.Term
	// Supers lists direct super-properties.
	Supers []rdf.Term
	// UsageCount is the number of instance triples using the property as
	// predicate.
	UsageCount int
}

// Schema is the extracted schema view of one graph version.
type Schema struct {
	classes    map[rdf.Term]*Class
	properties map[rdf.Term]*Property
	graph      *rdf.Graph
}

// reservedNamespaces are vocabulary namespaces whose predicates are never
// treated as data properties.
var reservedNamespaces = []string{rdf.NSRDF, rdf.NSRDFS, rdf.NSOWL}

func isReserved(iri string) bool {
	for _, ns := range reservedNamespaces {
		if strings.HasPrefix(iri, ns) {
			return true
		}
	}
	return false
}

// metaClasses are terms that may appear as rdf:type objects without being
// data-level classes themselves.
var metaClasses = map[rdf.Term]struct{}{
	rdf.RDFSClass:   {},
	rdf.OWLClass:    {},
	rdf.RDFProperty: {},
}

// Extract builds the schema view of g. A term is recognized as a class if it
// is typed rdfs:Class/owl:Class, participates in rdfs:subClassOf, is a
// declared domain or range, or is the object of any rdf:type statement. A
// term is recognized as a property if it is typed rdf:Property, has a
// declared domain/range/super-property, or is used as a predicate outside
// the reserved vocabulary namespaces.
func Extract(g *rdf.Graph) *Schema {
	s := &Schema{
		classes:    make(map[rdf.Term]*Class),
		properties: make(map[rdf.Term]*Property),
		graph:      g,
	}

	// Classes by explicit typing.
	for _, meta := range []rdf.Term{rdf.RDFSClass, rdf.OWLClass} {
		for _, c := range g.Subjects(rdf.RDFType, meta) {
			s.class(c)
		}
	}
	// Classes and hierarchy from subsumption.
	g.ForEachMatch(rdf.Term{}, rdf.RDFSSubClassOf, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			sub, sup := s.class(t.S), s.class(t.O)
			sub.Supers = append(sub.Supers, t.O)
			sup.Subs = append(sup.Subs, t.S)
		}
		return true
	})
	// Classes from rdf:type objects; instance counts.
	g.ForEachMatch(rdf.Term{}, rdf.RDFType, rdf.Term{}, func(t rdf.Triple) bool {
		if !t.O.IsIRI() {
			return true
		}
		if _, meta := metaClasses[t.O]; meta {
			return true
		}
		s.class(t.O).InstanceCount++
		return true
	})
	// Properties from declarations.
	for _, p := range g.Subjects(rdf.RDFType, rdf.RDFProperty) {
		s.property(p)
	}
	g.ForEachMatch(rdf.Term{}, rdf.RDFSDomain, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			s.property(t.S).Domains = append(s.property(t.S).Domains, t.O)
			s.class(t.O)
		}
		return true
	})
	g.ForEachMatch(rdf.Term{}, rdf.RDFSRange, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			s.property(t.S).Ranges = append(s.property(t.S).Ranges, t.O)
			s.class(t.O)
		}
		return true
	})
	g.ForEachMatch(rdf.Term{}, rdf.RDFSSubPropertyOf, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			s.property(t.S).Supers = append(s.property(t.S).Supers, t.O)
			s.property(t.O)
		}
		return true
	})
	// Properties from use; usage counts.
	for _, p := range g.Predicates() {
		if !p.IsIRI() || isReserved(p.Value) {
			continue
		}
		s.property(p).UsageCount = g.CountMatch(rdf.Term{}, p, rdf.Term{})
	}

	// Deduplicate adjacency slices for deterministic downstream use.
	for _, c := range s.classes {
		c.Supers = dedupSorted(c.Supers)
		c.Subs = dedupSorted(c.Subs)
	}
	for _, p := range s.properties {
		p.Domains = dedupSorted(p.Domains)
		p.Ranges = dedupSorted(p.Ranges)
		p.Supers = dedupSorted(p.Supers)
	}
	return s
}

func (s *Schema) class(t rdf.Term) *Class {
	c, ok := s.classes[t]
	if !ok {
		c = &Class{Term: t}
		s.classes[t] = c
	}
	return c
}

func (s *Schema) property(t rdf.Term) *Property {
	p, ok := s.properties[t]
	if !ok {
		p = &Property{Term: t}
		s.properties[t] = p
	}
	return p
}

func dedupSorted(ts []rdf.Term) []rdf.Term {
	if len(ts) <= 1 {
		return ts
	}
	rdf.SortTerms(ts)
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Graph returns the underlying graph the schema was extracted from.
func (s *Schema) Graph() *rdf.Graph { return s.graph }

// Class returns the class record for t, if t is a known class.
func (s *Schema) Class(t rdf.Term) (*Class, bool) {
	c, ok := s.classes[t]
	return c, ok
}

// Property returns the property record for t, if t is a known property.
func (s *Schema) Property(t rdf.Term) (*Property, bool) {
	p, ok := s.properties[t]
	return p, ok
}

// IsClass reports whether t is a known class.
func (s *Schema) IsClass(t rdf.Term) bool { _, ok := s.classes[t]; return ok }

// IsProperty reports whether t is a known property.
func (s *Schema) IsProperty(t rdf.Term) bool { _, ok := s.properties[t]; return ok }

// NumClasses returns the number of known classes.
func (s *Schema) NumClasses() int { return len(s.classes) }

// NumProperties returns the number of known properties.
func (s *Schema) NumProperties() int { return len(s.properties) }

// ClassTerms returns all class terms in sorted order.
func (s *Schema) ClassTerms() []rdf.Term {
	out := make([]rdf.Term, 0, len(s.classes))
	for t := range s.classes {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

// PropertyTerms returns all property terms in sorted order.
func (s *Schema) PropertyTerms() []rdf.Term {
	out := make([]rdf.Term, 0, len(s.properties))
	for t := range s.properties {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

// Ancestors returns the transitive superclasses of c (excluding c), in
// sorted order. Cycles in the hierarchy are tolerated.
func (s *Schema) Ancestors(c rdf.Term) []rdf.Term {
	return s.closure(c, func(x *Class) []rdf.Term { return x.Supers })
}

// Descendants returns the transitive subclasses of c (excluding c), in
// sorted order.
func (s *Schema) Descendants(c rdf.Term) []rdf.Term {
	return s.closure(c, func(x *Class) []rdf.Term { return x.Subs })
}

func (s *Schema) closure(start rdf.Term, next func(*Class) []rdf.Term) []rdf.Term {
	seen := map[rdf.Term]struct{}{start: {}}
	stack := []rdf.Term{start}
	var out []rdf.Term
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c, ok := s.classes[t]
		if !ok {
			continue
		}
		for _, n := range next(c) {
			if _, dup := seen[n]; dup {
				continue
			}
			seen[n] = struct{}{}
			out = append(out, n)
			stack = append(stack, n)
		}
	}
	rdf.SortTerms(out)
	return out
}

// Neighbors returns the class neighborhood of c as defined by the paper
// (§II-b): classes related to c by a direct subsumption relationship, or
// connected to c through a property (the property's domain on one side and
// range on the other). The result excludes c itself and is sorted.
func (s *Schema) Neighbors(c rdf.Term) []rdf.Term {
	set := make(map[rdf.Term]struct{})
	if cl, ok := s.classes[c]; ok {
		for _, t := range cl.Supers {
			set[t] = struct{}{}
		}
		for _, t := range cl.Subs {
			set[t] = struct{}{}
		}
	}
	for _, p := range s.properties {
		connectsDomain := containsTerm(p.Domains, c)
		connectsRange := containsTerm(p.Ranges, c)
		if connectsDomain {
			for _, t := range p.Ranges {
				set[t] = struct{}{}
			}
		}
		if connectsRange {
			for _, t := range p.Domains {
				set[t] = struct{}{}
			}
		}
	}
	delete(set, c)
	out := make([]rdf.Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

// AllNeighbors returns Neighbors(c) for every class c, keyed by class, from
// one pass over the hierarchy and the property declarations instead of one
// pass over every property per class. Each list has the elements of
// Neighbors(c) in the same sorted order (nil where Neighbors is empty).
func (s *Schema) AllNeighbors() map[rdf.Term][]rdf.Term {
	out := make(map[rdf.Term][]rdf.Term, len(s.classes))
	for t, cl := range s.classes {
		out[t] = append(append(out[t], cl.Supers...), cl.Subs...)
	}
	for _, p := range s.properties {
		for _, d := range p.Domains {
			out[d] = append(out[d], p.Ranges...)
		}
		for _, r := range p.Ranges {
			out[r] = append(out[r], p.Domains...)
		}
	}
	for c, ns := range out {
		ns = dedupSorted(ns)
		if i, found := slices.BinarySearchFunc(ns, c, rdf.Term.Compare); found {
			ns = slices.Delete(ns, i, i+1)
		}
		out[c] = ns
	}
	return out
}

func containsTerm(ts []rdf.Term, x rdf.Term) bool {
	for _, t := range ts {
		if t == x {
			return true
		}
	}
	return false
}

// ClassGraph returns the undirected class-level graph used by the structural
// measures: one node per class, an edge for every direct subsumption pair
// and for every (domain, range) pair of every property. The adjacency lists
// are sorted and deduplicated.
func (s *Schema) ClassGraph() map[rdf.Term][]rdf.Term {
	adj := make(map[rdf.Term][]rdf.Term, len(s.classes))
	addEdge := func(a, b rdf.Term) {
		if a == b {
			return
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for t := range s.classes {
		if _, ok := adj[t]; !ok {
			adj[t] = nil
		}
	}
	for _, c := range s.classes {
		for _, sup := range c.Supers {
			addEdge(c.Term, sup)
		}
	}
	for _, p := range s.properties {
		for _, d := range p.Domains {
			for _, r := range p.Ranges {
				addEdge(d, r)
			}
		}
	}
	for t, ns := range adj {
		adj[t] = dedupSorted(ns)
	}
	return adj
}

// ClassGraphIDs is ClassGraph in dictionary-encoded form: the same nodes and
// edges, keyed by the graph's TermIDs instead of Terms. It feeds
// graphx.FromAdjacencyIDs so that structural-graph construction never hashes
// a term string. The returned Dict is the underlying graph's dictionary.
// Adjacency lists are deduplicated but not sorted; FromAdjacencyIDs imposes
// the deterministic order.
func (s *Schema) ClassGraphIDs() (*rdf.Dict, map[rdf.TermID][]rdf.TermID) {
	dict := s.graph.Dict()
	// Every schema term was extracted from the graph's own triples, so it is
	// already interned; Lookup keeps this accessor strictly read-only, which
	// the dictionary's concurrency model ("read methods never intern")
	// depends on. A miss would mean a term from outside the graph — not
	// producible today — and is skipped rather than interned.
	adj := make(map[rdf.TermID][]rdf.TermID, len(s.classes))
	addEdge := func(a, b rdf.TermID) {
		if a == b {
			return
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for t := range s.classes {
		id, ok := dict.Lookup(t)
		if !ok {
			continue
		}
		if _, ok := adj[id]; !ok {
			adj[id] = nil
		}
	}
	for _, c := range s.classes {
		cid, ok := dict.Lookup(c.Term)
		if !ok {
			continue
		}
		for _, sup := range c.Supers {
			if sid, ok := dict.Lookup(sup); ok {
				addEdge(cid, sid)
			}
		}
	}
	for _, p := range s.properties {
		for _, d := range p.Domains {
			did, ok := dict.Lookup(d)
			if !ok {
				continue
			}
			for _, r := range p.Ranges {
				if rid, ok := dict.Lookup(r); ok {
					addEdge(did, rid)
				}
			}
		}
	}
	for id, ns := range adj {
		adj[id] = dedupIDs(ns)
	}
	return dict, adj
}

// dedupIDs removes duplicate IDs in place (order is not preserved).
func dedupIDs(ids []rdf.TermID) []rdf.TermID {
	if len(ids) < 2 {
		return ids
	}
	seen := make(map[rdf.TermID]struct{}, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// TypesOf returns the classes instance x is typed with, sorted.
func (s *Schema) TypesOf(x rdf.Term) []rdf.Term {
	var out []rdf.Term
	for _, o := range s.graph.Objects(x, rdf.RDFType) {
		if s.IsClass(o) {
			out = append(out, o)
		}
	}
	rdf.SortTerms(out)
	return out
}

// InstancesOf returns the direct instances of class c, sorted.
func (s *Schema) InstancesOf(c rdf.Term) []rdf.Term {
	out := s.graph.Subjects(rdf.RDFType, c)
	rdf.SortTerms(out)
	return out
}
