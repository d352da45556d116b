package recommend

import (
	"math"
	"runtime"

	"evorec/internal/measures"
	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// ItemIndex is the ID-native scoring kernel over one version pair's items:
// every item vector compiled to a flat sorted TermID form with a cached
// norm, behind an inverted TermID → item-postings index. Scoring a user
// visits only the items sharing at least one dictionary term with the
// user's interests — every other item's cosine relatedness is exactly 0,
// so it is assigned, not computed — and selection runs through the shared
// bounded heap. All scores are bit-identical to the map-scored reference
// functions (TopK, GroupTopK, ...), which the parity suite asserts.
//
// The index owns a private dictionary: item entity terms are interned at
// construction, user interests are compiled against it lookup-only per
// call, so serving never mutates the index. An ItemIndex is immutable after
// construction and safe for concurrent use; per-call scratch comes from a
// package-level free list, which the engine's read-locked recommend path
// and the feed's fan-out workers share for free.
type ItemIndex struct {
	items  []Item
	ids    []string       // measure IDs, aligned with items
	ords   map[string]int // measure ID -> ordinal
	flats  []profile.Flat // flat item vectors, aligned with items
	totals []float64      // deterministic popularity totals, aligned
	dict   *rdf.Dict
	post   map[rdf.TermID][]int32
	nan    []int32 // ordinals with NaN norm: the reference arithmetic
	// scores them NaN against everyone, so they are always candidates
	entityTerms []rdf.Term // distinct positively-weighted vector terms, sorted
	catOrds     [][]int32  // ordinals per measures.Categories() slot, item order
}

// NewItemIndex compiles the items into the flat scoring form. Items must be
// what BuildItems returns (sorted by measure ID, unique IDs).
func NewItemIndex(items []Item) *ItemIndex {
	ix := &ItemIndex{
		items:  items,
		ids:    make([]string, len(items)),
		ords:   make(map[string]int, len(items)),
		flats:  make([]profile.Flat, len(items)),
		totals: make([]float64, len(items)),
		dict:   rdf.NewDict(),
		post:   make(map[rdf.TermID][]int32),
	}
	var squares []float64
	positive := make(map[rdf.TermID]struct{})
	for i, it := range items {
		ix.ids[i] = it.ID()
		ix.ords[it.ID()] = i
		f := &ix.flats[i]
		f.Compile(it.Vector, ix.dict, true, &squares)
		for _, e := range f.Entries {
			ix.post[e.ID] = append(ix.post[e.ID], int32(i))
			if e.W > 0 {
				positive[e.ID] = struct{}{}
			}
		}
		if math.IsNaN(f.Norm) {
			ix.nan = append(ix.nan, int32(i))
		}
		ix.totals[i] = it.Scores.Total()
	}
	ix.entityTerms = make([]rdf.Term, 0, len(positive))
	for id := range positive {
		ix.entityTerms = append(ix.entityTerms, ix.dict.TermOf(id))
	}
	rdf.SortTerms(ix.entityTerms)
	cats := measures.Categories()
	ix.catOrds = make([][]int32, len(cats))
	for ci, cat := range cats {
		for i, it := range items {
			if it.Category() == cat {
				ix.catOrds[ci] = append(ix.catOrds[ci], int32(i))
			}
		}
	}
	return ix
}

// Items returns the indexed items (shared, not copied).
func (ix *ItemIndex) Items() []Item { return ix.items }

// Len returns the number of indexed items.
func (ix *ItemIndex) Len() int { return len(ix.items) }

// Dict returns the index's private term dictionary. It is read-only after
// construction; compile user vectors against it without interning.
func (ix *ItemIndex) Dict() *rdf.Dict { return ix.dict }

// ByID returns the item with the given measure ID — the kernel's
// replacement for scanning the item slice per ranked measure.
func (ix *ItemIndex) ByID(id string) (Item, bool) {
	if i, ok := ix.ords[id]; ok {
		return ix.items[i], true
	}
	return Item{}, false
}

// EntityTerms returns the distinct entity terms any item scores positively,
// sorted. The feed fan-out intersects exactly this set with its subscriber
// index, so the per-commit term walk is precomputed here once per pair.
func (ix *ItemIndex) EntityTerms() []rdf.Term { return ix.entityTerms }

// kernelScratch is the reused per-call state of the scoring kernel.
type kernelScratch struct {
	scores  []float64
	visited []bool
	cand    []int32
	prods   []float64
	squares []float64
	flat    profile.Flat
	group   []profile.Flat
}

// kernelFree is the free list scratch is drawn from and returned to. It is
// a buffered channel, not a sync.Pool: a pool may drop any Put (every GC
// empties it, and race builds drop one in four on purpose), and each drop
// hands a later call fresh scratch that regrows its buffers. It holds four
// per P, so the feed's fan-out workers (four by default) and the request
// goroutines scoring beside them all find scratch to reuse; scratch
// returned to a full list is left to the collector.
var kernelFree = make(chan *kernelScratch, 4*runtime.GOMAXPROCS(0))

// getScratch returns reused scratch sized for ix.
func (ix *ItemIndex) getScratch() *kernelScratch {
	var sc *kernelScratch
	select {
	case sc = <-kernelFree:
	default:
		sc = new(kernelScratch)
	}
	n := len(ix.items)
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
		sc.visited = make([]bool, n)
	}
	sc.scores = sc.scores[:n]
	sc.visited = sc.visited[:n]
	return sc
}

func putScratch(sc *kernelScratch) {
	select {
	case kernelFree <- sc:
	default:
	}
}

// compileUser compiles u's interests into the scratch flat.
func (ix *ItemIndex) compileUser(u *profile.Profile, sc *kernelScratch) *profile.Flat {
	sc.flat.Compile(u.Interests, ix.dict, false, &sc.squares)
	return &sc.flat
}

// scoreInto fills sc.scores with fu's relatedness to every item: cosines
// are computed only for posting-list candidates (plus NaN-norm items, which
// the reference arithmetic scores NaN against everyone); the rest are
// assigned their exact value, 0. A NaN user norm likewise poisons every
// item's score in the reference arithmetic, so that case falls back to
// scoring all items — through the same flat cosine, keeping bits identical.
func (ix *ItemIndex) scoreInto(fu *profile.Flat, sc *kernelScratch) {
	scores := sc.scores
	for i := range scores {
		scores[i] = 0
	}
	if math.IsNaN(fu.Norm) {
		for i := range ix.flats {
			scores[i] = profile.CosineFlatBuf(fu, &ix.flats[i], &sc.prods)
		}
		return
	}
	cand := ix.candidates(fu, sc)
	for _, ord := range cand {
		sc.visited[ord] = false
		scores[ord] = profile.CosineFlatBuf(fu, &ix.flats[ord], &sc.prods)
	}
}

// candidates collects the ordinals of items sharing at least one term with
// fu (plus the always-candidate NaN-norm items), using sc.visited as the
// dedup bitmap. Callers must clear visited for every returned ordinal.
func (ix *ItemIndex) candidates(fu *profile.Flat, sc *kernelScratch) []int32 {
	cand := sc.cand[:0]
	for _, e := range fu.Entries {
		for _, ord := range ix.post[e.ID] {
			if !sc.visited[ord] {
				sc.visited[ord] = true
				cand = append(cand, ord)
			}
		}
	}
	for _, ord := range ix.nan {
		if !sc.visited[ord] {
			sc.visited[ord] = true
			cand = append(cand, ord)
		}
	}
	sc.cand = cand
	return cand
}

// selectScores heap-selects the k best (ordinal, score) pairs under the
// canonical order.
func (ix *ItemIndex) selectScores(scores []float64, k int) []Recommendation {
	if k > len(ix.items) {
		k = len(ix.items)
	}
	h := newBounded(k, betterRec)
	for i, id := range ix.ids {
		h.offer(Recommendation{MeasureID: id, Score: scores[i]})
	}
	return h.take()
}

// TopK returns the k measures most related to the user — the flat-kernel
// form of TopK, bit-identical to it.
func (ix *ItemIndex) TopK(u *profile.Profile, k int) []Recommendation {
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	return ix.selectScores(sc.scores, k)
}

// NoveltyTopK ranks by relatedness × novelty — the flat-kernel form of
// NoveltyTopK.
func (ix *ItemIndex) NoveltyTopK(u *profile.Profile, k int) []Recommendation {
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	for i, id := range ix.ids {
		sc.scores[i] *= 1 / float64(1+u.SeenCount(id))
	}
	return ix.selectScores(sc.scores, k)
}

// SemanticTopK round-robins over measure categories — the flat-kernel form
// of SemanticTopK.
func (ix *ItemIndex) SemanticTopK(u *profile.Profile, k int) []Recommendation {
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	if k > len(ix.items) {
		k = len(ix.items)
	}
	byCat := make([][]Recommendation, len(ix.catOrds))
	for ci, ords := range ix.catOrds {
		h := newBounded(len(ords), betterRec)
		for _, ord := range ords {
			h.offer(Recommendation{MeasureID: ix.ids[ord], Score: sc.scores[ord]})
		}
		byCat[ci] = h.take()
	}
	var out []Recommendation
	for len(out) < k {
		progressed := false
		for ci := range byCat {
			if len(out) >= k {
				break
			}
			if len(byCat[ci]) == 0 {
				continue
			}
			out = append(out, byCat[ci][0])
			byCat[ci] = byCat[ci][1:]
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return out
}

// PopularityTopK ranks by the cached deterministic change-mass totals — the
// flat-kernel form of PopularityTopK.
func (ix *ItemIndex) PopularityTopK(k int) []Recommendation {
	return ix.selectScores(ix.totals, k)
}

// GroupTopK recommends to a group under an aggregation — the flat-kernel
// form of GroupTopK: members are compiled once, candidate items are the
// union of the members' postings, and each candidate aggregates member
// cosines in member order, exactly as GroupScore does.
func (ix *ItemIndex) GroupTopK(g *profile.Group, k int, agg Aggregation) []Recommendation {
	sc := ix.getScratch()
	defer putScratch(sc)
	if cap(sc.group) < g.Size() {
		sc.group = make([]profile.Flat, g.Size())
	}
	sc.group = sc.group[:g.Size()]
	anyNaN := false
	for i, m := range g.Members {
		sc.group[i].Compile(m.Interests, ix.dict, false, &sc.squares)
		if math.IsNaN(sc.group[i].Norm) {
			anyNaN = true
		}
	}
	scores := sc.scores
	for i := range scores {
		scores[i] = 0
	}
	if anyNaN {
		for i := range ix.flats {
			scores[i] = ix.groupScoreFlat(sc, int32(i), agg)
		}
		return ix.selectScores(scores, k)
	}
	cand := sc.cand[:0]
	for mi := range sc.group {
		for _, e := range sc.group[mi].Entries {
			for _, ord := range ix.post[e.ID] {
				if !sc.visited[ord] {
					sc.visited[ord] = true
					cand = append(cand, ord)
				}
			}
		}
	}
	for _, ord := range ix.nan {
		if !sc.visited[ord] {
			sc.visited[ord] = true
			cand = append(cand, ord)
		}
	}
	sc.cand = cand
	for _, ord := range cand {
		sc.visited[ord] = false
		scores[ord] = ix.groupScoreFlat(sc, ord, agg)
	}
	return ix.selectScores(scores, k)
}

// groupScoreFlat aggregates the compiled members' relatedness for one item,
// mirroring GroupScore member for member.
func (ix *ItemIndex) groupScoreFlat(sc *kernelScratch, ord int32, agg Aggregation) float64 {
	it := &ix.flats[ord]
	switch agg {
	case LeastMisery:
		min := 0.0
		for i := range sc.group {
			r := profile.CosineFlatBuf(&sc.group[i], it, &sc.prods)
			if i == 0 || r < min {
				min = r
			}
		}
		return min
	case MostPleasure:
		max := 0.0
		for i := range sc.group {
			if r := profile.CosineFlatBuf(&sc.group[i], it, &sc.prods); r > max {
				max = r
			}
		}
		return max
	default: // Average
		sum := 0.0
		for i := range sc.group {
			sum += profile.CosineFlatBuf(&sc.group[i], it, &sc.prods)
		}
		return sum / float64(len(sc.group))
	}
}

// NotifyEach invokes emit for each of the user's top-k measures whose
// relatedness crosses the threshold, in descending canonical order, with
// the ExplainText-identical one-line reason. It is the flat-kernel body of
// a notification: one interest compile, candidate-only scoring, and flat
// explanations rendered only for the measures actually emitted. Beyond
// reused scratch it allocates only the reasons themselves, so callers
// (Engine.Notify, the feed fan-out workers) build their notification
// batches with no intermediate slices.
func (ix *ItemIndex) NotifyEach(u *profile.Profile, threshold float64, k int, emit func(measureID string, score float64, reason string)) {
	sc := ix.getScratch()
	defer putScratch(sc)
	fu := ix.compileUser(u, sc)
	ix.scoreInto(fu, sc)
	for _, r := range ix.selectScores(sc.scores, k) {
		if r.Score < threshold || r.Score == 0 {
			continue
		}
		emit(r.MeasureID, r.Score, ix.explainTextFlat(fu, ix.ords[r.MeasureID], sc))
	}
}

// explainTextFlat renders the ExplainText(u, it, 1)-identical reason from
// the compiled vectors: the top contribution by product (ties by term
// order) over the flat merge, decoded back to terms only for the winner.
func (ix *ItemIndex) explainTextFlat(fu *profile.Flat, ord int, sc *kernelScratch) string {
	ae, be := fu.Entries, ix.flats[ord].Entries
	var best Contribution
	found := false
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch {
		case ae[i].ID < be[j].ID:
			i++
		case ae[i].ID > be[j].ID:
			j++
		default:
			w, s := ae[i].W, be[j].W
			if w != 0 && s != 0 {
				c := Contribution{
					Term:       ix.dict.TermOf(ae[i].ID),
					UserWeight: w,
					ItemScore:  s,
					Product:    w * s,
				}
				if !found || betterContribution(c, best) {
					best, found = c, true
				}
			}
			i++
			j++
		}
	}
	if !found {
		return explainText(ix.ids[ord], nil)
	}
	return explainText(ix.ids[ord], []Contribution{best})
}
