// Package graphx implements the structural graph algorithms behind the
// paper's structural evolution measures (§II-c): Brandes betweenness
// centrality, bridging centrality (betweenness × bridging coefficient,
// after Hwang et al.), plus the supporting machinery — BFS distances,
// connected components, clustering coefficients, degree statistics and
// PageRank — over an undirected graph of RDF terms.
//
// The package converts the term-keyed adjacency produced by
// schema.ClassGraph into a compact integer-indexed form once, then runs all
// algorithms on integer IDs.
package graphx

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"evorec/internal/rdf"
)

// Graph is an undirected graph over rdf.Term nodes with integer-compacted
// adjacency. Build one with FromAdjacency (term-keyed input) or
// FromAdjacencyIDs (dictionary-encoded input, which skips every term-keyed
// map on the construction path).
type Graph struct {
	nodes []rdf.Term
	// Exactly one of index / (dict, idIndex) is populated, depending on the
	// constructor: node lookup goes through the term dictionary when the
	// graph was built from encoded adjacency, so probes hash a uint32
	// instead of a three-string struct.
	index   map[rdf.Term]int
	dict    *rdf.Dict
	idIndex map[rdf.TermID]int
	adj     [][]int
}

// indexOf resolves a term to its compact node index.
func (g *Graph) indexOf(t rdf.Term) (int, bool) {
	if g.dict != nil {
		id, ok := g.dict.Lookup(t)
		if !ok {
			return 0, false
		}
		i, ok := g.idIndex[id]
		return i, ok
	}
	i, ok := g.index[t]
	return i, ok
}

// FromAdjacency builds a Graph from a term-keyed adjacency map, such as the
// one returned by schema.ClassGraph. Nodes are ordered deterministically
// (sorted by term) so that all derived scores are reproducible. Edges to
// nodes absent from the map are ignored; duplicate edges and self-loops are
// dropped.
func FromAdjacency(adj map[rdf.Term][]rdf.Term) *Graph {
	nodes := make([]rdf.Term, 0, len(adj))
	for t := range adj {
		nodes = append(nodes, t)
	}
	rdf.SortTerms(nodes)
	index := make(map[rdf.Term]int, len(nodes))
	for i, t := range nodes {
		index[t] = i
	}
	g := &Graph{nodes: nodes, index: index, adj: make([][]int, len(nodes))}
	for t, ns := range adj {
		u := index[t]
		seen := make(map[int]struct{}, len(ns))
		for _, n := range ns {
			v, ok := index[n]
			if !ok || v == u {
				continue
			}
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			g.adj[u] = append(g.adj[u], v)
		}
		sort.Ints(g.adj[u])
	}
	return g
}

// FromAdjacencyIDs builds a Graph from dictionary-encoded adjacency, such as
// schema.ClassGraphIDs. It produces a graph identical to FromAdjacency over
// the decoded terms (same deterministic node order, same scores) but the
// whole construction hashes only uint32 IDs. The dict must be the one that
// minted the IDs.
func FromAdjacencyIDs(dict *rdf.Dict, adj map[rdf.TermID][]rdf.TermID) *Graph {
	ids := make([]rdf.TermID, 0, len(adj))
	for id := range adj {
		ids = append(ids, id)
	}
	// Deterministic node order: sorted by decoded term, matching
	// FromAdjacency so all derived scores are reproducible across the two
	// construction paths.
	slices.SortFunc(ids, func(a, b rdf.TermID) int {
		return dict.TermOf(a).Compare(dict.TermOf(b))
	})
	idIndex := make(map[rdf.TermID]int, len(ids))
	nodes := make([]rdf.Term, len(ids))
	for i, id := range ids {
		idIndex[id] = i
		nodes[i] = dict.TermOf(id)
	}
	g := &Graph{nodes: nodes, dict: dict, idIndex: idIndex, adj: make([][]int, len(ids))}
	for id, ns := range adj {
		u := idIndex[id]
		seen := make(map[int]struct{}, len(ns))
		for _, n := range ns {
			v, ok := idIndex[n]
			if !ok || v == u {
				continue
			}
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			g.adj[u] = append(g.adj[u], v)
		}
		sort.Ints(g.adj[u])
	}
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, ns := range g.adj {
		n += len(ns)
	}
	return n / 2
}

// Nodes returns the node terms in index order.
func (g *Graph) Nodes() []rdf.Term {
	out := make([]rdf.Term, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Degree returns the degree of node t, or 0 if t is not in the graph.
func (g *Graph) Degree(t rdf.Term) int {
	i, ok := g.indexOf(t)
	if !ok {
		return 0
	}
	return len(g.adj[i])
}

// HasNode reports whether t is a node of the graph.
func (g *Graph) HasNode(t rdf.Term) bool {
	_, ok := g.indexOf(t)
	return ok
}

// Neighbors returns the nodes adjacent to t, in node-index (sorted term)
// order; nil for unknown nodes.
func (g *Graph) Neighbors(t rdf.Term) []rdf.Term {
	i, ok := g.indexOf(t)
	if !ok {
		return nil
	}
	out := make([]rdf.Term, len(g.adj[i]))
	for k, w := range g.adj[i] {
		out[k] = g.nodes[w]
	}
	return out
}

// Scores maps terms to a real-valued score; every centrality in this package
// returns one.
type Scores map[rdf.Term]float64

// Betweenness computes exact betweenness centrality for every node with
// Brandes' algorithm on unweighted shortest paths. Each unordered pair is
// counted once (the undirected convention: accumulated dependencies are
// halved).
func (g *Graph) Betweenness() Scores {
	cb := make([]float64, len(g.nodes))
	sc := newBrandesScratch(len(g.nodes))
	for s := range g.nodes {
		g.brandesFrom(s, cb, sc)
	}
	out := make(Scores, len(g.nodes))
	for i, t := range g.nodes {
		out[t] = cb[i] / 2
	}
	return out
}

// BetweennessSampled estimates betweenness from k randomly chosen source
// pivots, scaled by n/k (Brandes–Pich pivot sampling). With k >= n it is
// exact. The rng must not be nil.
func (g *Graph) BetweennessSampled(k int, rng *rand.Rand) Scores {
	n := len(g.nodes)
	if k >= n {
		return g.Betweenness()
	}
	cb := make([]float64, n)
	sc := newBrandesScratch(n)
	perm := rng.Perm(n)
	for _, s := range perm[:k] {
		g.brandesFrom(s, cb, sc)
	}
	scale := float64(n) / float64(k) / 2
	out := make(Scores, n)
	for i, t := range g.nodes {
		out[t] = cb[i] * scale
	}
	return out
}

// brandesScratch holds the per-source working arrays of Brandes' algorithm,
// reused across source iterations so a full betweenness run allocates O(n)
// once instead of O(n) per source.
type brandesScratch struct {
	sigma []float64 // number of shortest paths
	dist  []int
	delta []float64
	pred  [][]int
	queue []int
	order []int // nodes in non-decreasing distance
}

func newBrandesScratch(n int) *brandesScratch {
	return &brandesScratch{
		sigma: make([]float64, n),
		dist:  make([]int, n),
		delta: make([]float64, n),
		pred:  make([][]int, n),
		queue: make([]int, 0, n),
		order: make([]int, 0, n),
	}
}

// brandesFrom runs one Brandes source iteration, accumulating dependencies
// into cb.
func (g *Graph) brandesFrom(s int, cb []float64, sc *brandesScratch) {
	sigma, dist, delta, pred := sc.sigma, sc.dist, sc.delta, sc.pred
	for i := range dist {
		sigma[i] = 0
		dist[i] = -1
		delta[i] = 0
		pred[i] = pred[i][:0]
	}
	sigma[s] = 1
	dist[s] = 0
	queue := append(sc.queue[:0], s)
	order := sc.order[:0]
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
			if dist[w] == dist[v]+1 {
				sigma[w] += sigma[v]
				pred[w] = append(pred[w], v)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		for _, v := range pred[w] {
			delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
		}
		if w != s {
			cb[w] += delta[w]
		}
	}
	sc.order = order[:0]
}

// BridgingCoefficient computes, for every node, the bridging coefficient
// BrC(v) = (1/d(v)) / Σ_{i∈N(v)} 1/d(i). Nodes of degree 0 get 0.
func (g *Graph) BridgingCoefficient() Scores {
	out := make(Scores, len(g.nodes))
	for i, t := range g.nodes {
		d := len(g.adj[i])
		if d == 0 {
			out[t] = 0
			continue
		}
		sum := 0.0
		for _, w := range g.adj[i] {
			if dw := len(g.adj[w]); dw > 0 {
				sum += 1 / float64(dw)
			}
		}
		if sum == 0 {
			out[t] = 0
			continue
		}
		out[t] = (1 / float64(d)) / sum
	}
	return out
}

// BridgingCentrality computes bridging centrality: the product of the
// betweenness rank value and the bridging coefficient. A node scoring high
// connects densely-connected components, the topological signal the paper's
// structural measure targets.
func (g *Graph) BridgingCentrality() Scores {
	return g.BridgingCentralityFrom(g.Betweenness())
}

// BridgingCentralityFrom is BridgingCentrality over an already computed
// Betweenness of g, for callers that keep the betweenness vector anyway:
// it skips the second Brandes run and returns the same scores bit for bit.
func (g *Graph) BridgingCentralityFrom(bc Scores) Scores {
	brc := g.BridgingCoefficient()
	out := make(Scores, len(g.nodes))
	for _, t := range g.nodes {
		out[t] = bc[t] * brc[t]
	}
	return out
}

// BFSDistances returns the unweighted shortest-path distance from src to
// every reachable node. Unreachable nodes are absent from the result.
func (g *Graph) BFSDistances(src rdf.Term) map[rdf.Term]int {
	s, ok := g.indexOf(src)
	if !ok {
		return nil
	}
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	out := make(map[rdf.Term]int)
	for i, d := range dist {
		if d >= 0 {
			out[g.nodes[i]] = d
		}
	}
	return out
}

// BFSPath returns one shortest path from src to dst (inclusive of both
// endpoints), or nil when dst is unreachable or either node is unknown.
func (g *Graph) BFSPath(src, dst rdf.Term) []rdf.Term {
	s, ok := g.indexOf(src)
	if !ok {
		return nil
	}
	d, ok := g.indexOf(dst)
	if !ok {
		return nil
	}
	if s == d {
		return []rdf.Term{src}
	}
	parent := make([]int, len(g.nodes))
	for i := range parent {
		parent[i] = -1
	}
	parent[s] = s
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if parent[w] >= 0 {
				continue
			}
			parent[w] = v
			if w == d {
				var path []rdf.Term
				for x := d; ; x = parent[x] {
					path = append(path, g.nodes[x])
					if x == s {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}

// ConnectedComponents returns the node sets of each connected component,
// largest first (ties broken by smallest contained node index).
func (g *Graph) ConnectedComponents() [][]rdf.Term {
	comp := make([]int, len(g.nodes))
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]rdf.Term
	for i := range g.nodes {
		if comp[i] >= 0 {
			continue
		}
		id := len(comps)
		var members []rdf.Term
		stack := []int{i}
		comp[i] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, g.nodes[v])
			for _, w := range g.adj[v] {
				if comp[w] < 0 {
					comp[w] = id
					stack = append(stack, w)
				}
			}
		}
		rdf.SortTerms(members)
		comps = append(comps, members)
	}
	sort.SliceStable(comps, func(a, b int) bool { return len(comps[a]) > len(comps[b]) })
	return comps
}

// ClusteringCoefficient computes the local clustering coefficient of every
// node: the fraction of pairs of neighbors that are themselves connected.
func (g *Graph) ClusteringCoefficient() Scores {
	out := make(Scores, len(g.nodes))
	for i, t := range g.nodes {
		d := len(g.adj[i])
		if d < 2 {
			out[t] = 0
			continue
		}
		nbr := make(map[int]struct{}, d)
		for _, w := range g.adj[i] {
			nbr[w] = struct{}{}
		}
		links := 0
		for _, w := range g.adj[i] {
			for _, x := range g.adj[w] {
				if x > w {
					if _, ok := nbr[x]; ok {
						links++
					}
				}
			}
		}
		out[t] = 2 * float64(links) / (float64(d) * float64(d-1))
	}
	return out
}

// PageRank computes PageRank with damping factor d over the undirected
// graph (each undirected edge treated as two directed edges), iterating
// until the L1 change drops below eps or maxIter rounds pass. Dangling mass
// is redistributed uniformly.
func (g *Graph) PageRank(d float64, eps float64, maxIter int) Scores {
	n := len(g.nodes)
	out := make(Scores, n)
	if n == 0 {
		return out
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for v := range g.adj {
			if len(g.adj[v]) == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(len(g.adj[v]))
			for _, w := range g.adj[v] {
				next[w] += share
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		change := 0.0
		for i := range next {
			next[i] = base + d*next[i]
			change += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if change < eps {
			break
		}
	}
	for i, t := range g.nodes {
		out[t] = rank[i]
	}
	return out
}

// Diameter returns the longest shortest-path distance in the graph,
// considering only reachable pairs. Empty graphs return 0.
func (g *Graph) Diameter() int {
	max := 0
	for _, t := range g.nodes {
		for _, d := range g.BFSDistances(t) {
			if d > max {
				max = d
			}
		}
	}
	return max
}
