// Package core implements the paper's processing model end to end: versions
// of a knowledge base are ingested, consecutive pairs are analyzed into
// measure evaluations, and the human-aware recommenders of §III rank the
// measures for users and groups. Every pipeline stage writes a provenance
// record (§III-b transparency), and the privacy entry points apply the
// anonymization machinery of §III-e before any profile reaches the
// recommender.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"evorec/internal/measures"
	"evorec/internal/profile"
	"evorec/internal/provenance"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
)

// Config parameterizes an Engine. The zero value is usable: it gets the
// default measure registry, the agent name "evorec" and the wall clock.
type Config struct {
	// Registry supplies the measure set; nil means measures.NewRegistry().
	Registry *measures.Registry
	// Agent names the engine in provenance records.
	Agent string
	// Clock stamps provenance records; nil means time.Now.
	Clock func() time.Time
}

// Engine is the processing model. It caches the expensive per-version-pair
// structures (contexts and items) so that repeated recommendations against
// the same pair are cheap, and one measures.VersionAnalysis per version it
// holds, so that pairs sharing a version share that version's analysis.
//
// Engine is not safe for unsupervised concurrent use: Ingest, Context and
// Items mutate the caches. It is, however, built to sit behind an external
// reader/writer lock (internal/service does exactly that): once a pair is
// cached — observable through HasItems — Recommend, RecommendGroup, Notify
// and RecommendPrivate only read the caches and append to the (internally
// synchronized) provenance store, so any number of them may run concurrently
// under a read lock while cache-building calls hold the write lock.
type Engine struct {
	registry *measures.Registry
	agent    string
	versions *rdf.VersionStore
	prov     *provenance.Store

	versionRec map[string]string                    // version ID -> provenance record ID
	analyses   map[string]*measures.VersionAnalysis // version ID -> analysis, built on first pair use
	ctxCache   map[string]*measures.Context
	itemsCache map[string][]recommend.Item
	idxCache   map[string]*recommend.ItemIndex // built with itemsCache, same lifetime
	itemsRec   map[string]string               // pair key -> provenance record ID
	ctxBuilds  int                             // contexts actually constructed (cache misses)
	anBuilds   int                             // version analyses actually constructed
}

// New builds an engine from the config.
func New(cfg Config) *Engine {
	reg := cfg.Registry
	if reg == nil {
		reg = measures.NewRegistry()
	}
	agent := cfg.Agent
	if agent == "" {
		agent = "evorec"
	}
	var prov *provenance.Store
	if cfg.Clock != nil {
		prov = provenance.NewStoreWithClock(cfg.Clock)
	} else {
		prov = provenance.NewStore()
	}
	return &Engine{
		registry:   reg,
		agent:      agent,
		versions:   rdf.NewVersionStore(),
		prov:       prov,
		versionRec: make(map[string]string),
		analyses:   make(map[string]*measures.VersionAnalysis),
		ctxCache:   make(map[string]*measures.Context),
		itemsCache: make(map[string][]recommend.Item),
		idxCache:   make(map[string]*recommend.ItemIndex),
		itemsRec:   make(map[string]string),
	}
}

// Registry returns the engine's measure registry.
func (e *Engine) Registry() *measures.Registry { return e.registry }

// Versions returns the engine's version store.
func (e *Engine) Versions() *rdf.VersionStore { return e.versions }

// Provenance returns the engine's provenance store.
func (e *Engine) Provenance() *provenance.Store { return e.prov }

// Ingest registers a version and records its provenance as an observation.
func (e *Engine) Ingest(v *rdf.Version) error {
	if err := e.versions.Add(v); err != nil {
		return err
	}
	rec, err := e.prov.Append("ingest_version", e.agent, provenance.Observation,
		nil, []string{"version:" + v.ID},
		fmt.Sprintf("%d triples", v.Graph.Len()))
	if err != nil {
		return fmt.Errorf("core: recording ingest provenance: %w", err)
	}
	e.versionRec[v.ID] = rec.ID
	return nil
}

// IngestAll ingests every version of the store in evolution order.
func (e *Engine) IngestAll(vs *rdf.VersionStore) error {
	for _, id := range vs.IDs() {
		v, _ := vs.Get(id)
		if err := e.Ingest(v); err != nil {
			return err
		}
	}
	return nil
}

func pairKey(olderID, newerID string) string { return olderID + "->" + newerID }

// Context returns (building and caching on first use) the analysis context
// for a version pair.
func (e *Engine) Context(olderID, newerID string) (*measures.Context, error) {
	key := pairKey(olderID, newerID)
	if ctx, ok := e.ctxCache[key]; ok {
		return ctx, nil
	}
	older, err := e.analysis(olderID)
	if err != nil {
		return nil, err
	}
	newer, err := e.analysis(newerID)
	if err != nil {
		return nil, err
	}
	ctx := measures.NewPairContext(older, newer)
	e.ctxCache[key] = ctx
	e.ctxBuilds++
	if _, err := e.prov.Append("compute_delta", e.agent, provenance.Inference,
		[]string{e.versionRec[olderID], e.versionRec[newerID]},
		[]string{"delta:" + key},
		fmt.Sprintf("|δ+|=%d |δ-|=%d", len(ctx.Delta.Added), len(ctx.Delta.Deleted))); err != nil {
		return nil, fmt.Errorf("core: recording delta provenance: %w", err)
	}
	return ctx, nil
}

// analysis returns (building and caching on first use) the per-version
// analysis of a held version. It lives as long as the version does in the
// engine: InvalidateVersion drops it with the version's pairs.
func (e *Engine) analysis(id string) (*measures.VersionAnalysis, error) {
	if a, ok := e.analyses[id]; ok {
		return a, nil
	}
	v, ok := e.versions.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown version %q", id)
	}
	a := measures.NewVersionAnalysis(v)
	e.analyses[id] = a
	e.anBuilds++
	return a, nil
}

// Items returns (building and caching on first use) the recommendable items
// — every registered measure evaluated on the version pair.
func (e *Engine) Items(olderID, newerID string) ([]recommend.Item, error) {
	key := pairKey(olderID, newerID)
	if items, ok := e.itemsCache[key]; ok {
		return items, nil
	}
	ctx, err := e.Context(olderID, newerID)
	if err != nil {
		return nil, err
	}
	items := recommend.BuildItems(ctx, e.registry)
	e.itemsCache[key] = items
	// The scoring kernel's item index lives and dies with the item cache:
	// built once per pair, so every later recommend/notify against the pair
	// scores through flat vectors and postings without mutating anything —
	// the property that lets the service run them under a read lock.
	e.idxCache[key] = recommend.NewItemIndex(items)

	deltaRec, _ := e.prov.Creator("delta:" + key)
	artifacts := make([]string, 0, len(items))
	for _, it := range items {
		artifacts = append(artifacts, fmt.Sprintf("scores:%s:%s", it.ID(), key))
	}
	rec, err := e.prov.Append("evaluate_measures", e.agent, provenance.Inference,
		[]string{deltaRec.ID}, artifacts, fmt.Sprintf("%d measures", len(items)))
	if err != nil {
		return nil, fmt.Errorf("core: recording measure provenance: %w", err)
	}
	e.itemsRec[key] = rec.ID
	return items, nil
}

// ItemIndex returns (building and caching the pair on first use) the
// scoring kernel's item index for a version pair. The index is immutable
// and safe for concurrent use; the feed fan-out borrows it so commits score
// subscribers through the exact structures the recommend path uses.
func (e *Engine) ItemIndex(olderID, newerID string) (*recommend.ItemIndex, error) {
	if _, err := e.Items(olderID, newerID); err != nil {
		return nil, err
	}
	return e.idxCache[pairKey(olderID, newerID)], nil
}

// HasItems reports whether the pair's items (and therefore its context) are
// already cached. When it returns true, the recommendation entry points read
// the caches without mutating them, which is what lets a service run them
// concurrently under a read lock.
func (e *Engine) HasItems(olderID, newerID string) bool {
	_, ok := e.itemsCache[pairKey(olderID, newerID)]
	return ok
}

// ContextBuilds returns how many measure contexts the engine actually
// constructed (cache misses). A service wrapping the engine with singleflight
// can assert that hammering one pair from many goroutines builds it once.
func (e *Engine) ContextBuilds() int { return e.ctxBuilds }

// CachedPairs returns the pair keys with cached items, sorted.
func (e *Engine) CachedPairs() []string {
	out := make([]string, 0, len(e.itemsCache))
	for key := range e.itemsCache {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// InvalidatePair drops one pair's cached context and items, reporting
// whether anything was cached. The next request against the pair rebuilds.
func (e *Engine) InvalidatePair(olderID, newerID string) bool {
	key := pairKey(olderID, newerID)
	_, hadCtx := e.ctxCache[key]
	_, hadItems := e.itemsCache[key]
	delete(e.ctxCache, key)
	delete(e.itemsCache, key)
	delete(e.idxCache, key)
	delete(e.itemsRec, key)
	return hadCtx || hadItems
}

// InvalidateVersion drops the version's analysis and every cached pair that
// involves the version, and returns how many pairs were dropped. Committing
// a replacement or repaired version invalidates exactly the derived state
// that read it — untouched pairs keep their caches.
func (e *Engine) InvalidateVersion(id string) int {
	delete(e.analyses, id)
	n := 0
	for key, ctx := range e.ctxCache {
		if ctx.Older.ID == id || ctx.Newer.ID == id {
			delete(e.ctxCache, key)
			delete(e.itemsCache, key)
			delete(e.idxCache, key)
			delete(e.itemsRec, key)
			n++
		}
	}
	return n
}

// Strategy selects the single-user recommendation algorithm.
type Strategy uint8

const (
	// Plain ranks purely by relatedness (§III-a).
	Plain Strategy = iota
	// DiverseMMR applies content-based MMR diversification (§III-c(i)).
	DiverseMMR
	// DiverseMaxMin applies Max-Min diversification (§III-c(i) ablation).
	DiverseMaxMin
	// NoveltyAware demotes measures the user has already seen (§III-c(ii)).
	NoveltyAware
	// SemanticDiverse round-robins over measure categories (§III-c(iii)).
	SemanticDiverse
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Plain:
		return "plain"
	case DiverseMMR:
		return "mmr"
	case DiverseMaxMin:
		return "maxmin"
	case NoveltyAware:
		return "novelty"
	case SemanticDiverse:
		return "semantic"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// Request parameterizes a single-user recommendation.
type Request struct {
	// OlderID and NewerID name the version pair to analyze.
	OlderID, NewerID string
	// K is the number of measures to recommend.
	K int
	// Strategy selects the algorithm; zero value is Plain.
	Strategy Strategy
	// Lambda is the MMR relevance/diversity mix (only for DiverseMMR);
	// zero means 0.5.
	Lambda float64
	// MarkSeen updates the user's history with the recommended measures,
	// feeding future novelty-aware requests.
	MarkSeen bool
}

// Recommend produces a recommendation list for one user and records its
// provenance.
func (e *Engine) Recommend(u *profile.Profile, req Request) ([]recommend.Recommendation, error) {
	if u == nil {
		return nil, fmt.Errorf("core: profile must not be nil")
	}
	if req.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", req.K)
	}
	items, err := e.Items(req.OlderID, req.NewerID)
	if err != nil {
		return nil, err
	}
	key := pairKey(req.OlderID, req.NewerID)
	idx := e.idxCache[key]
	lambda := req.Lambda
	if lambda == 0 {
		lambda = 0.5
	}
	// Point selections run on the flat kernel (bit-identical to the map
	// path); the greedy diversifiers score item pairs adaptively and stay on
	// the reference functions.
	var sel []recommend.Recommendation
	switch req.Strategy {
	case DiverseMMR:
		sel = recommend.MMR(u, items, req.K, lambda)
	case DiverseMaxMin:
		sel = recommend.MaxMin(u, items, req.K)
	case NoveltyAware:
		sel = idx.NoveltyTopK(u, req.K)
	case SemanticDiverse:
		sel = idx.SemanticTopK(u, req.K)
	default:
		sel = idx.TopK(u, req.K)
	}
	if req.MarkSeen {
		for _, s := range sel {
			u.MarkSeen(s.MeasureID)
		}
	}
	// Built without fmt, like the record ID: fmt's pooled printers would
	// make this per-request path's allocation count vary between calls.
	artifact := "rec:" + u.ID + ":" + key + ":" + req.Strategy.String()
	note := "k=" + strconv.Itoa(req.K) + " measures=[" + strings.Join(recommend.MeasureIDs(sel), " ") + "]"
	if _, err := e.prov.Append("recommend", e.agent, provenance.Inference,
		[]string{e.itemsRec[key]}, []string{artifact}, note); err != nil {
		return nil, fmt.Errorf("core: recording recommendation provenance: %w", err)
	}
	return sel, nil
}

// GroupRequest parameterizes a group recommendation.
type GroupRequest struct {
	// OlderID and NewerID name the version pair to analyze.
	OlderID, NewerID string
	// K is the number of measures to recommend.
	K int
	// Aggregation selects the group scoring strategy.
	Aggregation recommend.Aggregation
	// FairGreedy switches to the fairness-aware greedy selection with
	// balance FairAlpha (§III-d) instead of plain aggregation ranking.
	FairGreedy bool
	// FairAlpha balances group utility against the least-satisfied member
	// in FairGreedy mode.
	FairAlpha float64
}

// RecommendGroup produces a recommendation list for a group and records its
// provenance.
func (e *Engine) RecommendGroup(g *profile.Group, req GroupRequest) ([]recommend.Recommendation, error) {
	if g == nil {
		return nil, fmt.Errorf("core: group must not be nil")
	}
	if req.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", req.K)
	}
	items, err := e.Items(req.OlderID, req.NewerID)
	if err != nil {
		return nil, err
	}
	key := pairKey(req.OlderID, req.NewerID)
	var sel []recommend.Recommendation
	if req.FairGreedy {
		sel = recommend.FairGreedyTopK(g, items, req.K, req.FairAlpha)
	} else {
		sel = e.idxCache[key].GroupTopK(g, req.K, req.Aggregation)
	}
	mode := req.Aggregation.String()
	if req.FairGreedy {
		mode = fmt.Sprintf("fair_greedy(α=%.2f)", req.FairAlpha)
	}
	artifact := fmt.Sprintf("grouprec:%s:%s:%s", g.ID, key, mode)
	if _, err := e.prov.Append("recommend_group", e.agent, provenance.Inference,
		[]string{e.itemsRec[key]}, []string{artifact},
		fmt.Sprintf("k=%d members=%d measures=%v", req.K, g.Size(), recommend.MeasureIDs(sel))); err != nil {
		return nil, fmt.Errorf("core: recording group recommendation provenance: %w", err)
	}
	return sel, nil
}

// PrivacyPolicy selects the anonymization applied to a profile pool before
// recommendation (§III-e). Zero values disable each mechanism.
type PrivacyPolicy struct {
	// KAnonymity >= 2 replaces every profile with its group centroid such
	// that at least K users share each published vector.
	KAnonymity int
	// Epsilon > 0 adds Laplace noise with scale 1/Epsilon to every profile
	// over the pool's interest universe.
	Epsilon float64
	// Seed drives the noise; fixed seeds give reproducible experiments.
	Seed int64
}

// Anonymize applies the policy to the pool and returns the published
// profiles (index-aligned), recording the anonymization in provenance.
func (e *Engine) Anonymize(pool []*profile.Profile, pol PrivacyPolicy) ([]*profile.Profile, error) {
	published := pool
	if pol.KAnonymity >= 2 {
		anon, _, err := recommend.KAnonymize(pool, pol.KAnonymity)
		if err != nil {
			return nil, err
		}
		published = anon
	}
	if pol.Epsilon > 0 {
		rng := rand.New(rand.NewSource(pol.Seed))
		universe := recommend.InterestUniverse(pool)
		noisy := make([]*profile.Profile, len(published))
		for i, p := range published {
			np, err := recommend.DPPerturb(p, universe, pol.Epsilon, rng)
			if err != nil {
				return nil, err
			}
			noisy[i] = np
		}
		published = noisy
	}
	if _, err := e.prov.Append("anonymize_profiles", e.agent, provenance.Inference,
		nil, []string{fmt.Sprintf("profiles:anonymized:k=%d:eps=%g", pol.KAnonymity, pol.Epsilon)},
		fmt.Sprintf("%d profiles", len(pool))); err != nil {
		return nil, fmt.Errorf("core: recording anonymization provenance: %w", err)
	}
	return published, nil
}

// RecommendPrivate recommends for pool member idx using only the anonymized
// view of the pool, so the recommender never touches the raw profile.
func (e *Engine) RecommendPrivate(pool []*profile.Profile, idx int, req Request, pol PrivacyPolicy) ([]recommend.Recommendation, error) {
	if idx < 0 || idx >= len(pool) {
		return nil, fmt.Errorf("core: pool index %d out of range", idx)
	}
	published, err := e.Anonymize(pool, pol)
	if err != nil {
		return nil, err
	}
	return e.Recommend(published[idx], req)
}
