package measures

import (
	"fmt"
	"math"
	"sort"

	"evorec/internal/rdf"
)

// Target says which entity population a measure scores.
type Target uint8

const (
	// Classes means the measure scores classes only.
	Classes Target = iota
	// Properties means the measure scores properties only.
	Properties
	// ClassesAndProperties means the measure scores both populations.
	ClassesAndProperties
)

// String names the target population.
func (t Target) String() string {
	switch t {
	case Classes:
		return "classes"
	case Properties:
		return "properties"
	case ClassesAndProperties:
		return "classes+properties"
	default:
		return fmt.Sprintf("target(%d)", uint8(t))
	}
}

// Category groups measures by the kind of evolution signal they read, the
// paper's "different vertical and complementary viewpoints". Semantic
// diversification (§III-c) selects across categories.
type Category uint8

const (
	// CategoryCount covers raw change-counting measures (§II-a/b).
	CategoryCount Category = iota
	// CategoryStructural covers topology-based importance shifts (§II-c).
	CategoryStructural
	// CategorySemantic covers instance-weighted importance shifts (§II-d).
	CategorySemantic
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CategoryCount:
		return "count"
	case CategoryStructural:
		return "structural"
	case CategorySemantic:
		return "semantic"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// Categories lists all categories in stable order.
func Categories() []Category {
	return []Category{CategoryCount, CategoryStructural, CategorySemantic}
}

// Measure quantifies the evolution intensity of knowledge-base entities
// between two versions. Implementations must be stateless: all version data
// comes from the Context.
type Measure interface {
	// ID is the stable machine name (snake_case) used in registries,
	// experiment tables and user profiles.
	ID() string
	// Name is the human-readable name.
	Name() string
	// Description explains what aspect of evolution the measure captures.
	Description() string
	// Target reports which entity population the measure scores.
	Target() Target
	// Category reports which viewpoint family the measure belongs to.
	Category() Category
	// Compute evaluates the measure over the version pair.
	Compute(ctx *Context) Scores
}

// ---------------------------------------------------------------------------
// 1. ChangeCount (§II-a)

// ChangeCount counts |δ(n)| = |δ+(n)| + |δ−(n)|: the number of added or
// deleted triples mentioning each class and property.
type ChangeCount struct{}

// ID implements Measure.
func (ChangeCount) ID() string { return "change_count" }

// Name implements Measure.
func (ChangeCount) Name() string { return "Number of class/property changes" }

// Description implements Measure.
func (ChangeCount) Description() string {
	return "Counts the low-level delta triples that mention each class or property (paper §II-a)."
}

// Target implements Measure.
func (ChangeCount) Target() Target { return ClassesAndProperties }

// Category implements Measure.
func (ChangeCount) Category() Category { return CategoryCount }

// Compute implements Measure.
func (ChangeCount) Compute(ctx *Context) Scores {
	out := make(Scores)
	for _, c := range ctx.UnionClasses() {
		out[c] = float64(ctx.Attr.Changes(c).Total())
	}
	for _, p := range ctx.UnionProperties() {
		out[p] = float64(ctx.Attr.Changes(p).Total())
	}
	return out
}

// ---------------------------------------------------------------------------
// 2. NeighborhoodChangeCount (§II-b)

// NeighborhoodChangeCount counts |δN(n)|: the changes over each class's
// two-version schema neighborhood, revealing topology-level change bursts
// around a class even when the class itself is untouched.
type NeighborhoodChangeCount struct{}

// ID implements Measure.
func (NeighborhoodChangeCount) ID() string { return "neighborhood_change_count" }

// Name implements Measure.
func (NeighborhoodChangeCount) Name() string { return "Number of changes in neighborhoods" }

// Description implements Measure.
func (NeighborhoodChangeCount) Description() string {
	return "Sums the per-class change counts over the class's subsumption/property neighborhood in either version (paper §II-b)."
}

// Target implements Measure.
func (NeighborhoodChangeCount) Target() Target { return Classes }

// Category implements Measure.
func (NeighborhoodChangeCount) Category() Category { return CategoryCount }

// Compute implements Measure.
func (NeighborhoodChangeCount) Compute(ctx *Context) Scores {
	out := make(Scores)
	for _, c := range ctx.UnionClasses() {
		out[c] = float64(ctx.Attr.NeighborhoodChanges(ctx.UnionNeighbors(c)))
	}
	return out
}

// ---------------------------------------------------------------------------
// 3. BetweennessShift (§II-c)

// BetweennessShift scores each class by the absolute change of its
// betweenness centrality in the class-level structural graph between the
// two versions.
type BetweennessShift struct{}

// ID implements Measure.
func (BetweennessShift) ID() string { return "betweenness_shift" }

// Name implements Measure.
func (BetweennessShift) Name() string { return "Betweenness shift" }

// Description implements Measure.
func (BetweennessShift) Description() string {
	return "Absolute difference of class betweenness centrality across versions (paper §II-c)."
}

// Target implements Measure.
func (BetweennessShift) Target() Target { return Classes }

// Category implements Measure.
func (BetweennessShift) Category() Category { return CategoryStructural }

// Compute implements Measure.
func (BetweennessShift) Compute(ctx *Context) Scores {
	return shiftScores(ctx, ctx.OlderAnalysis.Betweenness(), ctx.NewerAnalysis.Betweenness())
}

// ---------------------------------------------------------------------------
// 4. BridgingShift (§II-c)

// BridgingShift scores each class by the absolute change of its bridging
// centrality (betweenness × bridging coefficient), capturing shifts in the
// "connector" role of a class between densely connected regions.
type BridgingShift struct{}

// ID implements Measure.
func (BridgingShift) ID() string { return "bridging_shift" }

// Name implements Measure.
func (BridgingShift) Name() string { return "Bridging centrality shift" }

// Description implements Measure.
func (BridgingShift) Description() string {
	return "Absolute difference of class bridging centrality across versions (paper §II-c)."
}

// Target implements Measure.
func (BridgingShift) Target() Target { return Classes }

// Category implements Measure.
func (BridgingShift) Category() Category { return CategoryStructural }

// Compute implements Measure.
func (BridgingShift) Compute(ctx *Context) Scores {
	return shiftScores(ctx, ctx.OlderAnalysis.BridgingCentrality(), ctx.NewerAnalysis.BridgingCentrality())
}

// ---------------------------------------------------------------------------
// 5. CentralityShift (§II-d)

// CentralityShift scores each class by the absolute change of its semantic
// in/out-centrality (weighted relative cardinalities of its properties).
type CentralityShift struct{}

// ID implements Measure.
func (CentralityShift) ID() string { return "centrality_shift" }

// Name implements Measure.
func (CentralityShift) Name() string { return "Semantic centrality shift" }

// Description implements Measure.
func (CentralityShift) Description() string {
	return "Absolute difference of semantic in/out-centrality across versions (paper §II-d)."
}

// Target implements Measure.
func (CentralityShift) Target() Target { return Classes }

// Category implements Measure.
func (CentralityShift) Category() Category { return CategorySemantic }

// Compute implements Measure.
func (CentralityShift) Compute(ctx *Context) Scores {
	out := make(Scores)
	for _, c := range ctx.UnionClasses() {
		out[c] = math.Abs(ctx.NewerAnalysis.Centrality(c) - ctx.OlderAnalysis.Centrality(c))
	}
	return out
}

// ---------------------------------------------------------------------------
// 6. RelevanceShift (§II-d)

// RelevanceShift scores each class by the absolute change of its relevance
// (neighborhood-extended, instance-weighted centrality), the paper's most
// holistic importance signal.
type RelevanceShift struct{}

// ID implements Measure.
func (RelevanceShift) ID() string { return "relevance_shift" }

// Name implements Measure.
func (RelevanceShift) Name() string { return "Relevance shift" }

// Description implements Measure.
func (RelevanceShift) Description() string {
	return "Absolute difference of neighborhood-extended, instance-weighted relevance across versions (paper §II-d)."
}

// Target implements Measure.
func (RelevanceShift) Target() Target { return Classes }

// Category implements Measure.
func (RelevanceShift) Category() Category { return CategorySemantic }

// Compute implements Measure.
func (RelevanceShift) Compute(ctx *Context) Scores {
	out := make(Scores)
	for _, c := range ctx.UnionClasses() {
		out[c] = math.Abs(ctx.NewerAnalysis.Relevance(c) - ctx.OlderAnalysis.Relevance(c))
	}
	return out
}

// ---------------------------------------------------------------------------
// 7. PropertyCentralityShift (§II extension to properties)

// PropertyCentralityShift scores each property by the absolute change of
// its semantic centrality (sum of relative cardinalities of the class-level
// edges it realizes). The paper sketches this extension at the end of §II.
type PropertyCentralityShift struct{}

// ID implements Measure.
func (PropertyCentralityShift) ID() string { return "property_centrality_shift" }

// Name implements Measure.
func (PropertyCentralityShift) Name() string { return "Property centrality shift" }

// Description implements Measure.
func (PropertyCentralityShift) Description() string {
	return "Absolute difference of property-level semantic centrality across versions (paper §II, property extension)."
}

// Target implements Measure.
func (PropertyCentralityShift) Target() Target { return Properties }

// Category implements Measure.
func (PropertyCentralityShift) Category() Category { return CategorySemantic }

// Compute implements Measure.
func (PropertyCentralityShift) Compute(ctx *Context) Scores {
	out := make(Scores)
	for _, p := range ctx.UnionProperties() {
		out[p] = math.Abs(ctx.NewerAnalysis.PropertyCentrality(p) - ctx.OlderAnalysis.PropertyCentrality(p))
	}
	return out
}

func shiftScores(ctx *Context, older, newer map[rdf.Term]float64) Scores {
	out := make(Scores)
	for _, c := range ctx.UnionClasses() {
		out[c] = math.Abs(newer[c] - older[c])
	}
	return out
}

// ---------------------------------------------------------------------------
// Registry

// Registry maps measure IDs to measure implementations.
type Registry struct {
	byID map[string]Measure
}

// NewRegistry returns a registry pre-populated with the default measure set.
func NewRegistry() *Registry {
	r := &Registry{byID: make(map[string]Measure)}
	for _, m := range DefaultSet() {
		// Default set has unique IDs by construction.
		r.byID[m.ID()] = m
	}
	return r
}

// DefaultSet returns the exemplar measures of the paper's §II, in a stable
// order.
func DefaultSet() []Measure {
	return []Measure{
		ChangeCount{},
		NeighborhoodChangeCount{},
		BetweennessShift{},
		BridgingShift{},
		CentralityShift{},
		RelevanceShift{},
		PropertyCentralityShift{},
	}
}

// Register adds a measure; it fails if the ID is empty or taken.
func (r *Registry) Register(m Measure) error {
	if m.ID() == "" {
		return fmt.Errorf("measures: measure must have a non-empty ID")
	}
	if _, dup := r.byID[m.ID()]; dup {
		return fmt.Errorf("measures: measure %q already registered", m.ID())
	}
	r.byID[m.ID()] = m
	return nil
}

// Get returns the measure with the given ID.
func (r *Registry) Get(id string) (Measure, bool) {
	m, ok := r.byID[id]
	return m, ok
}

// All returns every registered measure sorted by ID.
func (r *Registry) All() []Measure {
	ids := make([]string, 0, len(r.byID))
	for id := range r.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Measure, len(ids))
	for i, id := range ids {
		out[i] = r.byID[id]
	}
	return out
}

// Len returns the number of registered measures.
func (r *Registry) Len() int { return len(r.byID) }

// EvaluateAll computes every registered measure on the context, keyed by
// measure ID.
func (r *Registry) EvaluateAll(ctx *Context) map[string]Scores {
	out := make(map[string]Scores, len(r.byID))
	for id, m := range r.byID {
		out[id] = m.Compute(ctx)
	}
	return out
}
