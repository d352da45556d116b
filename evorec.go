// Package evorec is the public API of the evorec library: a human-aware
// recommender for knowledge-base evolution measures, reproducing Stefanidis,
// Kondylakis and Troullinou, "On Recommending Evolution Measures: A
// Human-Aware Approach" (ICDE 2017).
//
// The library is organized in layers (see DESIGN.md):
//
//   - an RDF substrate with versioning (Graph, Version, VersionStore),
//   - evolution analysis: low-level deltas, high-level change detection,
//     structural and semantic importance measures,
//   - the measure framework (Measure, Context, Registry) with the paper's
//     six exemplar measures plus a property-level extension,
//   - the human-aware recommenders: relatedness, content/novelty/semantic
//     diversity, group fairness, and anonymity (k-anonymity and differential
//     privacy),
//   - provenance-backed transparency for every recommendation,
//   - a synthetic evolving-KB generator standing in for DBpedia snapshots.
//
// The Engine type ties the layers into the paper's processing model:
//
//	eng := evorec.NewEngine(evorec.EngineConfig{})
//	eng.IngestAll(versions)
//	recs, err := eng.Recommend(user, evorec.Request{
//		OlderID: "v1", NewerID: "v2", K: 3,
//	})
//
// All exported names are thin aliases over the internal implementation
// packages, so the whole supported surface is visible in one place.
package evorec

import (
	"io"
	"log/slog"
	"math/rand"
	"net/http"

	"evorec/internal/archive"
	"evorec/internal/core"
	"evorec/internal/delta"
	"evorec/internal/feed"
	"evorec/internal/graphx"
	"evorec/internal/measures"
	"evorec/internal/obs"
	"evorec/internal/profile"
	"evorec/internal/provenance"
	"evorec/internal/query"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/schema"
	"evorec/internal/semantics"
	"evorec/internal/server"
	"evorec/internal/service"
	"evorec/internal/sim"
	"evorec/internal/store"
	"evorec/internal/summary"
	"evorec/internal/synth"
	"evorec/internal/trend"
)

// ---------------------------------------------------------------------------
// RDF substrate

// Term is an RDF term (IRI, blank node, literal, or pattern wildcard).
type Term = rdf.Term

// Triple is one RDF statement.
type Triple = rdf.Triple

// Graph is the indexed in-memory triple store.
type Graph = rdf.Graph

// Version is a named snapshot of a knowledge base.
type Version = rdf.Version

// VersionStore holds the ordered versions of one dataset.
type VersionStore = rdf.VersionStore

// TermID is a dense dictionary-encoded term identifier (see DESIGN.md
// "Storage & interning"): the integers the hot paths run on.
type TermID = rdf.TermID

// IDTriple is a triple in dictionary-encoded form.
type IDTriple = rdf.IDTriple

// Dict is the append-only Term ⇄ TermID interner shared by all versions of
// one dataset.
type Dict = rdf.Dict

// NewGraph returns an empty graph.
func NewGraph() *Graph { return rdf.NewGraph() }

// NewDict returns an empty term dictionary.
func NewDict() *Dict { return rdf.NewDict() }

// NewGraphWithDict returns an empty graph interning into a shared dictionary.
func NewGraphWithDict(d *Dict) *Graph { return rdf.NewGraphWithDict(d) }

// NewVersionStore returns an empty version store.
func NewVersionStore() *VersionStore { return rdf.NewVersionStore() }

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return rdf.NewIRI(iri) }

// NewLiteral returns a plain literal term.
func NewLiteral(v string) Term { return rdf.NewLiteral(v) }

// T constructs a triple.
func T(s, p, o Term) Triple { return rdf.T(s, p, o) }

// ReadNTriples parses N-Triples into a graph.
func ReadNTriples(r io.Reader) (*Graph, error) { return rdf.ReadNTriples(r) }

// ReadNTriplesInto parses N-Triples into an existing graph, so chains of
// versions can intern into one shared dictionary.
func ReadNTriplesInto(g *Graph, r io.Reader) error { return rdf.ReadNTriplesInto(g, r) }

// WriteNTriples serializes a graph as sorted N-Triples.
func WriteNTriples(w io.Writer, g *Graph) error { return rdf.WriteNTriples(w, g) }

// Frequently used vocabulary terms.
var (
	RDFType        = rdf.RDFType
	RDFSClass      = rdf.RDFSClass
	RDFSSubClassOf = rdf.RDFSSubClassOf
	RDFSDomain     = rdf.RDFSDomain
	RDFSRange      = rdf.RDFSRange
	RDFSLabel      = rdf.RDFSLabel
)

// SchemaIRI mints an IRI in the synthetic schema namespace.
func SchemaIRI(local string) Term { return rdf.SchemaIRI(local) }

// ResourceIRI mints an IRI in the synthetic resource namespace.
func ResourceIRI(local string) Term { return rdf.ResourceIRI(local) }

// ---------------------------------------------------------------------------
// Schema and analysis

// Schema is the extracted class/property view of one version.
type Schema = schema.Schema

// ExtractSchema builds the schema view of a graph.
func ExtractSchema(g *Graph) *Schema { return schema.Extract(g) }

// Delta is a low-level delta (δ+, δ−) between two versions.
type Delta = delta.Delta

// ComputeDelta computes the low-level delta between two graphs.
func ComputeDelta(older, newer *Graph) *Delta { return delta.Compute(older, newer) }

// ComputeDeltaParallel is ComputeDelta with the scan split across CPU cores;
// it requires (and the synthetic generators, Clone, and the archive loader
// guarantee) that both graphs share a term dictionary to gain anything.
func ComputeDeltaParallel(older, newer *Graph) *Delta { return delta.ComputeParallel(older, newer) }

// HighLevelChange is a detected schema-level change pattern.
type HighLevelChange = delta.HighLevelChange

// DetectHighLevel lifts a version pair into high-level changes.
func DetectHighLevel(older, newer *Graph) []HighLevelChange {
	return delta.DetectHighLevel(older, newer)
}

// StructuralGraph is the class-level graph used by structural measures.
type StructuralGraph = graphx.Graph

// SemanticAnalyzer answers semantic importance queries over one version.
type SemanticAnalyzer = semantics.Analyzer

// NewSemanticAnalyzer builds the semantic analyzer for a graph.
func NewSemanticAnalyzer(g *Graph, s *Schema) *SemanticAnalyzer {
	return semantics.NewAnalyzer(g, s)
}

// ---------------------------------------------------------------------------
// Measures

// Measure quantifies evolution intensity per entity between two versions.
type Measure = measures.Measure

// Scores maps entities to evolution-intensity values.
type Scores = measures.Scores

// MeasureContext carries the derived structures of one version pair.
type MeasureContext = measures.Context

// NewMeasureContext builds the analysis context for a version pair.
func NewMeasureContext(older, newer *Version) *MeasureContext {
	return measures.NewContext(older, newer)
}

// MeasureRegistry maps measure IDs to implementations.
type MeasureRegistry = measures.Registry

// NewMeasureRegistry returns a registry with the default measure set.
func NewMeasureRegistry() *MeasureRegistry { return measures.NewRegistry() }

// DefaultMeasures returns the paper's exemplar measure set.
func DefaultMeasures() []Measure { return measures.DefaultSet() }

// ---------------------------------------------------------------------------
// Users and groups

// Profile is one user's weighted interest model.
type Profile = profile.Profile

// Group is a set of users receiving recommendations together.
type Group = profile.Group

// NewProfile returns an empty profile.
func NewProfile(id string) *Profile { return profile.New(id) }

// NewGroup constructs a group from member profiles.
func NewGroup(id string, members []*Profile) (*Group, error) {
	return profile.NewGroup(id, members)
}

// ParseInterests parses the "Class=0.9,OtherClass=0.4" interest spec the
// CLI and HTTP API share into a profile. Bare names get weight 1 and
// resolve in the synthetic schema namespace; "scheme://" names are full
// IRIs.
func ParseInterests(id, spec string) (*Profile, error) {
	return profile.ParseInterests(id, spec)
}

// ParseUserSpec parses "id:Class=w,Class=w" into a profile.
func ParseUserSpec(spec string) (*Profile, error) { return profile.ParseUserSpec(spec) }

// ---------------------------------------------------------------------------
// Recommendation

// Item is one recommendable measure evaluated on a version pair.
type Item = recommend.Item

// Recommendation is one ranked measure.
type Recommendation = recommend.Recommendation

// Aggregation selects the group scoring strategy.
type Aggregation = recommend.Aggregation

// Group aggregation strategies.
const (
	Average      = recommend.Average
	LeastMisery  = recommend.LeastMisery
	MostPleasure = recommend.MostPleasure
)

// BuildItems evaluates every registered measure into recommendable items.
func BuildItems(ctx *MeasureContext, reg *MeasureRegistry) []Item {
	return recommend.BuildItems(ctx, reg)
}

// ItemIndex is the ID-native scoring kernel over one pair's items: flat
// sorted TermID vectors with cached norms behind an inverted term → item
// postings index, with bounded-heap top-k selection. Its rankings are
// bit-identical to the map-scored reference functions (TopK, GroupTopK,
// ...); the engine caches one per version pair and the feed fan-out scores
// subscribers through it (see DESIGN.md §9).
type ItemIndex = recommend.ItemIndex

// NewItemIndex compiles items into the flat scoring kernel form.
func NewItemIndex(items []Item) *ItemIndex { return recommend.NewItemIndex(items) }

// Relatedness scores how related an item is to a user (§III-a).
func Relatedness(u *Profile, it Item) float64 { return recommend.Relatedness(u, it) }

// TopK returns the k measures most related to the user.
func TopK(u *Profile, items []Item, k int) []Recommendation {
	return recommend.TopK(u, items, k)
}

// MMR returns a content-diversified top-k (λ mixes relevance vs diversity).
func MMR(u *Profile, items []Item, k int, lambda float64) []Recommendation {
	return recommend.MMR(u, items, k, lambda)
}

// GroupTopK recommends to a group under an aggregation strategy.
func GroupTopK(g *Group, items []Item, k int, agg Aggregation) []Recommendation {
	return recommend.GroupTopK(g, items, k, agg)
}

// FairGreedyTopK is the fairness-aware group selection (§III-d).
func FairGreedyTopK(g *Group, items []Item, k int, alpha float64) []Recommendation {
	return recommend.FairGreedyTopK(g, items, k, alpha)
}

// MaxMin returns a Max-Min diversified top-k.
func MaxMin(u *Profile, items []Item, k int) []Recommendation {
	return recommend.MaxMin(u, items, k)
}

// NoveltyTopK ranks by relatedness × novelty, demoting already-seen measures.
func NoveltyTopK(u *Profile, items []Item, k int) []Recommendation {
	return recommend.NoveltyTopK(u, items, k)
}

// SemanticTopK round-robins over measure categories for semantic diversity.
func SemanticTopK(u *Profile, items []Item, k int) []Recommendation {
	return recommend.SemanticTopK(u, items, k)
}

// IntraListDiversity is the mean pairwise content distance of a selection.
func IntraListDiversity(items []Item, sel []Recommendation) float64 {
	return recommend.IntraListDiversity(items, sel)
}

// CategoryCoverage is the fraction of measure categories in a selection.
func CategoryCoverage(items []Item, sel []Recommendation) float64 {
	return recommend.CategoryCoverage(items, sel)
}

// MeanRelatedness is the mean relatedness of a selection to a user.
func MeanRelatedness(u *Profile, items []Item, sel []Recommendation) float64 {
	return recommend.MeanRelatedness(u, items, sel)
}

// Satisfaction is a member's normalized satisfaction with a selection.
func Satisfaction(u *Profile, items []Item, sel []Recommendation) float64 {
	return recommend.Satisfaction(u, items, sel)
}

// GroupSatisfactions returns every member's satisfaction, in member order.
func GroupSatisfactions(g *Group, items []Item, sel []Recommendation) []float64 {
	return recommend.GroupSatisfactions(g, items, sel)
}

// MinSatisfaction is the satisfaction of the least-satisfied group member.
func MinSatisfaction(g *Group, items []Item, sel []Recommendation) float64 {
	return recommend.MinSatisfaction(g, items, sel)
}

// MeanSatisfaction is the mean member satisfaction with a selection.
func MeanSatisfaction(g *Group, items []Item, sel []Recommendation) float64 {
	return recommend.MeanSatisfaction(g, items, sel)
}

// JainIndex is Jain's fairness index over member satisfactions.
func JainIndex(sats []float64) float64 { return recommend.JainIndex(sats) }

// MeasureIDs extracts the ranked measure IDs of a selection.
func MeasureIDs(sel []Recommendation) []string { return recommend.MeasureIDs(sel) }

// NDCGAtK scores a ranked measure-ID list against graded relevance labels.
func NDCGAtK(ranked []string, relevance map[string]float64, k int) float64 {
	return recommend.NDCGAtK(ranked, relevance, k)
}

// DPPerturb publishes a differentially-private view of a profile.
func DPPerturb(p *Profile, universe []Term, epsilon float64, rng *rand.Rand) (*Profile, error) {
	return recommend.DPPerturb(p, universe, epsilon, rng)
}

// InterestUniverse returns the union of entities across a profile pool.
func InterestUniverse(pool []*Profile) []Term { return recommend.InterestUniverse(pool) }

// KAnonymize publishes a k-anonymous view of a profile pool (§III-e).
func KAnonymize(pool []*Profile, k int) ([]*Profile, [][]int, error) {
	return recommend.KAnonymize(pool, k)
}

// ReidentificationRisk simulates the linkage attack against published
// profiles.
func ReidentificationRisk(originals, published []*Profile) float64 {
	return recommend.ReidentificationRisk(originals, published)
}

// ---------------------------------------------------------------------------
// Transparency

// ProvenanceStore is the append-only provenance log backing transparency.
type ProvenanceStore = provenance.Store

// ProvenanceRecord is one provenance entry.
type ProvenanceRecord = provenance.Record

// ---------------------------------------------------------------------------
// Engine (the processing model)

// Engine ties the layers into the paper's processing model.
type Engine = core.Engine

// EngineConfig parameterizes an Engine.
type EngineConfig = core.Config

// Request parameterizes a single-user recommendation.
type Request = core.Request

// GroupRequest parameterizes a group recommendation.
type GroupRequest = core.GroupRequest

// PrivacyPolicy selects anonymization for private recommendations.
type PrivacyPolicy = core.PrivacyPolicy

// Strategy selects the single-user recommendation algorithm.
type Strategy = core.Strategy

// Single-user strategies.
const (
	Plain           = core.Plain
	DiverseMMR      = core.DiverseMMR
	DiverseMaxMin   = core.DiverseMaxMin
	NoveltyAware    = core.NoveltyAware
	SemanticDiverse = core.SemanticDiverse
)

// NewEngine builds an engine.
func NewEngine(cfg EngineConfig) *Engine { return core.New(cfg) }

// ---------------------------------------------------------------------------
// Synthetic data

// KBConfig shapes a generated knowledge base.
type KBConfig = synth.KBConfig

// EvolveConfig controls one synthetic evolution step.
type EvolveConfig = synth.EvolveConfig

// ProfileConfig shapes a synthetic user population.
type ProfileConfig = synth.ProfileConfig

// GroupKind selects how a synthetic group is assembled.
type GroupKind = synth.GroupKind

// Synthetic group kinds.
const (
	RandomGroup       = synth.RandomGroup
	CoherentGroup     = synth.CoherentGroup
	AntagonisticGroup = synth.AntagonisticGroup
)

// SmallKB returns a test-sized KB config.
func SmallKB() KBConfig { return synth.Small() }

// DBpediaLikeKB returns the DBpedia-shaped KB config.
func DBpediaLikeKB() KBConfig { return synth.DBpediaLike() }

// GenerateVersions builds a deterministic evolving dataset.
func GenerateVersions(kb KBConfig, ev EvolveConfig, steps int, seed int64) (*VersionStore, []Term, error) {
	return synth.GenerateVersions(kb, ev, steps, seed)
}

// GenerateProfiles builds a synthetic user population over a schema.
func GenerateProfiles(s *Schema, cfg ProfileConfig, rng *rand.Rand) ([]*Profile, []Term, error) {
	return synth.GenerateProfiles(s, cfg, rng)
}

// GenerateGroup assembles a synthetic group from a profile pool.
func GenerateGroup(pool []*Profile, size int, kind GroupKind, rng *rand.Rand) (*Group, error) {
	return synth.GenerateGroup(pool, size, kind, rng)
}

// ---------------------------------------------------------------------------
// Trends

// TrendAnalysis holds per-entity measure series over a version chain.
type TrendAnalysis = trend.Analysis

// TrendSeries is one entity's measure values over consecutive pairs.
type TrendSeries = trend.Series

// TrendShape classifies a series (quiet/rising/falling/bursty/steady).
type TrendShape = trend.Shape

// Trend shapes.
const (
	TrendQuiet   = trend.Quiet
	TrendRising  = trend.Rising
	TrendFalling = trend.Falling
	TrendBursty  = trend.Bursty
	TrendSteady  = trend.Steady
)

// AnalyzeTrend evaluates a measure over every consecutive pair of the chain
// and returns per-entity trend series ("observe changes trends", paper §I).
func AnalyzeTrend(vs *VersionStore, m Measure) (*TrendAnalysis, error) {
	return trend.Analyze(vs, m)
}

// ---------------------------------------------------------------------------
// Archive

// ArchivePolicy selects how versions are materialized on disk.
type ArchivePolicy = archive.Policy

// ArchiveOptions parameterize SaveArchive.
type ArchiveOptions = archive.Options

// ArchiveManifest indexes a saved archive.
type ArchiveManifest = archive.Manifest

// Archiving policies.
const (
	FullSnapshots = archive.FullSnapshots
	DeltaChain    = archive.DeltaChain
	HybridArchive = archive.Hybrid
)

// SaveArchive persists a version store to a directory under a policy.
func SaveArchive(dir string, vs *VersionStore, opt ArchiveOptions) (*ArchiveManifest, error) {
	return archive.Save(dir, vs, opt)
}

// LoadArchive reconstructs a version store from an archive directory.
func LoadArchive(dir string) (*VersionStore, error) { return archive.Load(dir) }

// ArchiveDiskUsage sums the archive's on-disk footprint.
func ArchiveDiskUsage(dir string, man *ArchiveManifest) (int64, error) {
	return archive.DiskUsage(dir, man)
}

// ArchiveCodec selects the archive's on-disk encoding.
type ArchiveCodec = archive.Codec

// Archive codecs.
const (
	// TextArchive is interoperable N-Triples (the default).
	TextArchive = archive.Text
	// BinaryArchive is the dictionary-native segment store.
	BinaryArchive = archive.Binary
)

// ---------------------------------------------------------------------------
// Binary segment store

// StorePolicy selects the binary store's snapshot/delta mix.
type StorePolicy = store.Policy

// Binary store policies.
const (
	StoreFullSnapshots = store.FullSnapshots
	StoreDeltaChain    = store.DeltaChain
	StoreHybrid        = store.Hybrid
)

// StoreOptions parameterize SaveStore.
type StoreOptions = store.Options

// StoreManifest indexes a saved binary store.
type StoreManifest = store.Manifest

// StoreDataset is a lazy handle over a stored version chain: versions
// materialize on first access through a small LRU, so version k can be
// served without loading the whole chain.
type StoreDataset = store.Dataset

// StoreInfo is the result of InspectStore.
type StoreInfo = store.Info

// StoreDefaultCacheCap is the store dataset's default graph-LRU capacity.
const StoreDefaultCacheCap = store.DefaultCacheCap

// SaveStore persists a version store to dir in the binary segment format.
func SaveStore(dir string, vs *VersionStore, opt StoreOptions) (*StoreManifest, error) {
	return store.Save(dir, vs, opt)
}

// OpenStore opens a binary store directory as a lazy dataset handle.
func OpenStore(dir string) (*StoreDataset, error) { return store.Open(dir) }

// InspectStore verifies a store directory's segments without materializing
// any graph.
func InspectStore(dir string) (*StoreInfo, error) { return store.Inspect(dir) }

// StoreDiskUsage sums the store's on-disk footprint.
func StoreDiskUsage(dir string, man *StoreManifest) (int64, error) {
	return store.DiskUsage(dir, man)
}

// StoreVerifyReport is the result of VerifyStore.
type StoreVerifyReport = store.VerifyReport

// StoreRecoverPlan is the result of PlanStoreRecovery.
type StoreRecoverPlan = store.RecoverPlan

// StoreWALRecordInfo is one WAL record's replay fate.
type StoreWALRecordInfo = store.WALRecordInfo

// WAL record replay statuses.
const (
	StoreWALApplied    = store.WALApplied
	StoreWALReplayable = store.WALReplayable
	StoreWALOrphaned   = store.WALOrphaned
)

// VerifyStore checks every durability invariant of a store directory —
// segment framing and checksums, chain contiguity, dictionary coverage,
// WAL replayability — without materializing a graph or writing a byte.
func VerifyStore(dir string) (*StoreVerifyReport, error) { return store.Verify(dir) }

// PlanStoreRecovery simulates what opening the store would replay from its
// write-ahead log, read-only.
func PlanStoreRecovery(dir string) (*StoreRecoverPlan, error) { return store.PlanRecovery(dir) }

// FeedVerifyInfo is the result of VerifyFeedDir.
type FeedVerifyInfo = feed.VerifyInfo

// VerifyFeedDir strictly loads a persisted feed directory (registry, logs,
// fan-out ledger) and summarizes it; any corruption is the returned error.
func VerifyFeedDir(dir string) (*FeedVerifyInfo, error) { return feed.Verify(dir) }

// ---------------------------------------------------------------------------
// Extended measures and explanations

// ExtendedMeasures returns the paper's measures plus the additional
// structural/counting measures (PageRank shift, clustering shift, instance
// churn, usage shift).
func ExtendedMeasures() []Measure { return measures.ExtendedSet() }

// NewExtendedMeasureRegistry returns a registry with ExtendedMeasures.
func NewExtendedMeasureRegistry() *MeasureRegistry { return measures.NewExtendedRegistry() }

// Contribution is one entity's share of a relatedness score.
type Contribution = recommend.Contribution

// Explain decomposes why an item is related to a user into its top-n
// contributing entities.
func Explain(u *Profile, it Item, n int) []Contribution {
	return recommend.Explain(u, it, n)
}

// ExplainText renders an explanation as one human-readable sentence.
func ExplainText(u *Profile, it Item, n int) string {
	return recommend.ExplainText(u, it, n)
}

// ---------------------------------------------------------------------------
// Query

// QueryAtom is one position of a triple pattern: term or variable.
type QueryAtom = query.Atom

// QueryPattern is one triple pattern of a basic graph pattern.
type QueryPattern = query.Pattern

// QueryFilter prunes bindings during evaluation.
type QueryFilter = query.Filter

// Query is a basic graph pattern with filters, projection, order and limit.
type Query = query.Query

// QueryBinding maps variable names to terms.
type QueryBinding = query.Binding

// QueryResult holds the projected variables and matched rows.
type QueryResult = query.Result

// Var returns a variable atom for query patterns.
func Var(name string) QueryAtom { return query.V(name) }

// Const returns a concrete atom for query patterns.
func Const(t Term) QueryAtom { return query.C(t) }

// RunQuery evaluates a basic-graph-pattern query against a graph.
func RunQuery(g *Graph, q *Query) (*QueryResult, error) { return query.Run(g, q) }

// ---------------------------------------------------------------------------
// Feedback learning and richer fairness diagnostics

// Learner updates interest profiles from accept/reject feedback.
type Learner = recommend.Learner

// NewLearner returns a feedback learner with the given rate in (0,1].
func NewLearner(rate float64) (*Learner, error) { return recommend.NewLearner(rate) }

// BuildItemsParallel is BuildItems with concurrent measure evaluation.
func BuildItemsParallel(ctx *MeasureContext, reg *MeasureRegistry) []Item {
	return recommend.BuildItemsParallel(ctx, reg)
}

// Proportionality is the fraction of group members with at least m of
// their personal top-delta measures in the selection.
func Proportionality(g *Group, items []Item, sel []Recommendation, m, delta int) float64 {
	return recommend.Proportionality(g, items, sel, m, delta)
}

// EnvySpread is the satisfaction gap between the best- and worst-served
// group members (0 = envy-free).
func EnvySpread(g *Group, items []Item, sel []Recommendation) float64 {
	return recommend.EnvySpread(g, items, sel)
}

// ---------------------------------------------------------------------------
// Schema summarization

// SchemaSummary is a relevance-selected, connected view of one version's
// schema (after Troullinou et al. [15]).
type SchemaSummary = summary.Summary

// Summarize builds the k-class relevance summary of a graph.
func Summarize(g *Graph, k int) (*SchemaSummary, error) { return summary.Summarize(g, k) }

// ---------------------------------------------------------------------------
// Notifications and the university workload

// Notification tells a user that data they care about evolved (paper §I).
type Notification = core.Notification

// UniversityConfig sizes the LUBM-flavored university workload.
type UniversityConfig = synth.UniversityConfig

// DefaultUniversity returns a mid-sized university workload config.
func DefaultUniversity() UniversityConfig { return synth.DefaultUniversity() }

// GenerateUniversityVersions builds an evolving university dataset.
func GenerateUniversityVersions(cfg UniversityConfig, ev EvolveConfig, steps int, seed int64) (*VersionStore, []Term, error) {
	return synth.GenerateUniversityVersions(cfg, ev, steps, seed)
}

// WriteProfileJSON serializes a profile (IRI interests + seen history).
func WriteProfileJSON(w io.Writer, p *Profile) error { return p.WriteJSON(w) }

// ReadProfileJSON deserializes a profile written by WriteProfileJSON.
func ReadProfileJSON(r io.Reader) (*Profile, error) { return profile.ReadJSON(r) }

// ---------------------------------------------------------------------------
// Concurrent evolution service and HTTP API

// Service is the concurrency-safe multi-dataset registry: each named
// dataset wraps one engine behind a reader/writer lock with per-pair
// singleflight, serves recommendations to concurrent clients, and accepts
// version commits at runtime (see DESIGN.md §7).
type Service = service.Service

// ServiceConfig parameterizes a Service.
type ServiceConfig = service.Config

// ServiceDataset is the thread-safe facade over one dataset's engine.
type ServiceDataset = service.Dataset

// ServiceInfo is a dataset inspection snapshot (versions, cache counters).
type ServiceInfo = service.Info

// ServiceCommitInfo reports what a runtime version commit did.
type ServiceCommitInfo = service.CommitInfo

// ServiceDeltaStats summarizes one pair's evolution for inspection.
type ServiceDeltaStats = service.DeltaStats

// Service sentinel errors; the HTTP layer maps them to statuses.
var (
	ErrUnknownDataset   = service.ErrUnknownDataset
	ErrUnknownVersion   = service.ErrUnknownVersion
	ErrDuplicateVersion = service.ErrDuplicateVersion
	ErrDuplicateDataset = service.ErrDuplicateDataset
	ErrCommitBusy       = service.ErrCommitBusy
	ErrDatasetClosed    = service.ErrDatasetClosed
	ErrDegraded         = service.ErrDegraded
	ErrBuildBusy        = service.ErrBuildBusy
)

// Resilience defaults: the cold pair-build concurrency gate and the
// degraded-dataset heal probe's backoff window.
const (
	DefaultBuildConcurrency = service.DefaultBuildConcurrency
	DefaultHealBackoff      = service.DefaultHealBackoff
	DefaultHealBackoffMax   = service.DefaultHealBackoffMax
)

// NewService returns an empty dataset registry.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// HTTPServer is the HTTP JSON API over a Service; it implements
// http.Handler, so it mounts on any mux or server ("evorec serve" wires it
// to a listener).
type HTTPServer = server.Server

// ---------------------------------------------------------------------------
// Subscriptions & feed

// Feed is one dataset's subscription subsystem: a persistent subscriber
// registry behind an inverted interest index (keyed on dictionary TermIDs),
// commit-triggered fan-out that scores only index-matched subscribers, and
// durable per-user feed logs with monotonic cursors (see DESIGN.md §8).
type Feed = feed.Feed

// FeedConfig parameterizes a Feed; the zero value is a usable in-memory
// feed.
type FeedConfig = feed.Config

// FeedEntry is one feed log entry: a notification under its cursor.
type FeedEntry = feed.Entry

// FeedStats reports what one commit-triggered fan-out did.
type FeedStats = feed.Stats

// SubscriberInfo is one registered subscriber.
type SubscriberInfo = feed.SubscriberInfo

// Feed defaults (zero FeedConfig values resolve to these).
const (
	FeedDefaultWorkers   = feed.DefaultWorkers
	FeedDefaultMaxLog    = feed.DefaultMaxLog
	FeedDefaultThreshold = feed.DefaultThreshold
	FeedDefaultK         = feed.DefaultK
)

// ErrUnknownSubscriber reports a subscriber ID with no registration and no
// retained feed log.
var ErrUnknownSubscriber = feed.ErrUnknownSubscriber

// OpenFeed builds a feed, loading persisted state when cfg.Dir holds a
// manifest. Service datasets open their feeds automatically; OpenFeed is
// the standalone entry point (benchmarks, offline tooling).
func OpenFeed(cfg FeedConfig) (*Feed, error) { return feed.Open(cfg) }

// ---------------------------------------------------------------------------
// Observability

// MetricsRegistry is the process-wide instrument registry: atomic counters,
// gauges and fixed-bucket histograms with Prometheus text exposition and an
// expvar mirror (see DESIGN.md §11). Registration is get-or-create, so
// every layer binding the same metric name shares one series.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// HTTPServerConfig parameterizes the HTTP layer (Retry-After hint, metrics
// registry, structured access logger). The zero value is the default
// configuration.
type HTTPServerConfig = server.Config

// DefaultRetryAfterSeconds is the Retry-After hint a zero HTTPServerConfig
// sends with 503 responses.
const DefaultRetryAfterSeconds = server.DefaultRetryAfterSeconds

// NewHTTPServerWithConfig builds the HTTP API over the service; a zero
// HTTPServerConfig is the default configuration.
func NewHTTPServerWithConfig(svc *Service, cfg HTTPServerConfig) *HTTPServer {
	return server.NewWithConfig(svc, cfg)
}

// NewLogger returns a text slog.Logger at the named level ("debug", "info",
// "warn", "error"; anything else means info) writing to w.
func NewLogger(w io.Writer, level string) *slog.Logger { return obs.NewLogger(w, level) }

// OpsBuildInfo is the static identity /healthz reports.
type OpsBuildInfo = obs.BuildInfo

// ServiceBuildInfo extracts the running binary's build identity (toolchain,
// VCS revision) under the given service name.
func ServiceBuildInfo(service string) OpsBuildInfo { return obs.FromBuildInfo(service) }

// OpsMuxConfig parameterizes the operator surface: the metrics registry,
// build identity and dynamic health fields, the readiness probe (/readyz)
// and the trace ring (/debug/traces).
type OpsMuxConfig = obs.OpsConfig

// NewOpsMuxWithConfig bundles the operator surface — GET /metrics,
// GET /healthz, GET /readyz, /debug/traces, /debug/pprof/*, /debug/vars —
// on one mux, meant for a separate loopback listener
// (`evorec serve -ops-addr`).
func NewOpsMuxWithConfig(cfg OpsMuxConfig) *http.ServeMux { return obs.OpsMux(cfg) }

// Tracer is the request-scoped tracing substrate: W3C traceparent
// join/mint, head sampling, a fixed ring of completed traces served at
// GET /debug/traces, and slow-trace logging (see DESIGN.md §12).
type Tracer = obs.Tracer

// TracerConfig parameterizes a Tracer; the zero value samples everything
// into a DefaultTraceRing-sized ring and never logs slow traces.
type TracerConfig = obs.TracerConfig

// DefaultTraceRing is the trace ring capacity a zero TracerConfig keeps.
const DefaultTraceRing = obs.DefaultTraceRing

// NewTracer builds a tracer. Wire it into HTTPServerConfig.Tracer (root
// spans per request), ServiceConfig.Tracer (root spans for background heal
// probes) and OpsMuxConfig.Tracer (/debug/traces) — the same instance in
// all three. Service, store and feed child spans need no wiring: they
// follow the request's context wherever a sampled root span opened it.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// ParseLatencyBuckets parses a comma-separated histogram bucket schedule in
// seconds for HTTPServerConfig.LatencyBuckets: at least one bound, every
// bound positive and finite, strictly increasing (`serve -latency-buckets`).
func ParseLatencyBuckets(spec string) ([]float64, error) { return obs.ParseBuckets(spec) }

// ---------------------------------------------------------------------------
// Workload simulation

// SimConfig parameterizes the deterministic workload simulator: seed,
// operation budget, pacing, concurrency, dataset/user population, and the
// endpoints to drive (see DESIGN.md §13).
type SimConfig = sim.Config

// SimPlan is a fully pre-generated operation schedule. Two plans built from
// equal configs are byte-identical (WriteOpLog proves it), which is what
// makes a soak run reproducible: execution timing varies, the workload
// never does.
type SimPlan = sim.Plan

// SimResult carries the outcome of a soak run: throughput, client/server
// latency, invariant and telemetry-conservation verdicts, and the final
// metrics snapshot for BENCH artifacts.
type SimResult = sim.Result

// SimInProcess is a self-contained evorec service stack (store, service,
// API listener, ops listener) on loopback ephemeral ports, for `evorec sim`
// runs without an external server.
type SimInProcess = sim.InProcess

// SimServerOptions parameterizes StartSimInProcess.
type SimServerOptions = sim.InProcOptions

// BuildSimPlan pre-generates the deterministic operation schedule for cfg.
func BuildSimPlan(cfg SimConfig) (*SimPlan, error) { return sim.BuildPlan(cfg) }

// StartSimInProcess boots the in-process service stack seeded with the
// plan's backed datasets. Callers must Close it.
func StartSimInProcess(plan *SimPlan, opt SimServerOptions) (*SimInProcess, error) {
	return sim.StartInProcess(plan, opt)
}

// RunSim executes the plan against cfg's endpoints and returns the verdict.
func RunSim(cfg SimConfig, plan *SimPlan) (*SimResult, error) { return sim.Run(cfg, plan) }
