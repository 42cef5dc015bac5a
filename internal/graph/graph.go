// Package graph provides the weighted undirected graph substrate underneath
// the mapping problem: the Task Interaction Graph (TIG) that models the
// application and the resource graph that models the heterogeneous platform.
//
// Both graph kinds share the same adjacency core (Undirected), which stores
// an edge list plus per-vertex neighbour slices in CSR style so the cost
// model can iterate a vertex's incident edges without allocation. The
// package also carries validation, connectivity queries, all-pairs shortest
// paths (used to close sparse platform topologies into full link-cost
// matrices), JSON serialisation for experiment artefacts and DOT export for
// visual inspection.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is one undirected weighted edge between vertices U and V (U < V is
// canonical but not required at construction time).
type Edge struct {
	U, V   int
	Weight float64
}

// Neighbor is one incident edge as seen from a fixed vertex.
type Neighbor struct {
	To     int
	Weight float64
}

// Undirected is a weighted undirected graph with a fixed vertex count.
// Vertices are dense integers [0, N). The zero value is an empty graph
// with zero vertices; construct with NewUndirected.
type Undirected struct {
	n     int
	edges []Edge
	// seen holds every edge's canonical endpoints while a graph of at
	// least scanEdges edges is under construction (until its adjacency is
	// built or its decode ends), so AddEdge's duplicate check and HasEdge
	// are O(1).
	seen map[[2]int]struct{}
	// CSR adjacency: neighbours of v are adj[offsets[v]:offsets[v+1]].
	offsets []int
	adj     []Neighbor
	dirty   bool
}

// NewUndirected returns an empty graph on n vertices.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Undirected{n: n}
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

// M returns the number of edges.
func (g *Undirected) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge (u, v) with the given weight.
// Self-loops and duplicate edges are rejected with an error: the TIG model
// has no self-communication and a pair of grids overlaps at most once.
func (g *Undirected) AddEdge(u, v int, weight float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if weight < 0 {
		return fmt.Errorf("graph: negative edge weight %v on (%d,%d)", weight, u, v)
	}
	if g.seen == nil && len(g.edges) >= scanEdges {
		g.seen = make(map[[2]int]struct{}, 2*len(g.edges))
		for _, e := range g.edges {
			g.seen[edgeKey(e.U, e.V)] = struct{}{}
		}
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	key := edgeKey(u, v)
	if g.seen != nil {
		g.seen[key] = struct{}{}
	}
	g.edges = append(g.edges, Edge{U: key[0], V: key[1], Weight: weight})
	g.dirty = true
	return nil
}

// scanEdges is the edge count up to which AddEdge finds duplicates by
// scanning the edge list. A scan that long takes about a microsecond,
// while a hash set would about double the memory of a graph under
// construction, so graphs this small, the common case, carry none.
const scanEdges = 1024

// edgeKey returns the canonical (smaller first) endpoints of (u, v).
func edgeKey(u, v int) [2]int {
	if u > v {
		return [2]int{v, u}
	}
	return [2]int{u, v}
}

// adoptEdges makes edges the edge list of g, which has none yet, adding
// them in order through add (g's AddEdge, or a wrapper of it such as
// ResourceGraph.AddLink) and so with AddEdge's checks. It takes ownership
// of edges: add appends edge i at index i of the same backing array,
// after edge i has been read. The graph is then complete, so the
// duplicate set is dropped rather than kept alive with it.
func (g *Undirected) adoptEdges(edges []Edge, add func(u, v int, weight float64) error) error {
	if len(edges) == 0 {
		return nil
	}
	g.edges = edges[:0]
	if len(edges) >= scanEdges {
		g.seen = make(map[[2]int]struct{}, len(edges))
	}
	for _, e := range edges {
		if err := add(e.U, e.V, e.Weight); err != nil {
			return err
		}
	}
	g.seen = nil
	return nil
}

// MustAddEdge is AddEdge that panics on error; for generators whose inputs
// are constructed to be valid.
func (g *Undirected) MustAddEdge(u, v int, weight float64) {
	if err := g.AddEdge(u, v, weight); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Undirected) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	if g.seen != nil {
		_, ok := g.seen[edgeKey(u, v)]
		return ok
	}
	if !g.dirty && g.offsets != nil {
		for _, nb := range g.Neighbors(u) {
			if nb.To == v {
				return true
			}
		}
		return false
	}
	for _, e := range g.edges {
		if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge (u, v) and whether it exists.
func (g *Undirected) EdgeWeight(u, v int) (float64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return 0, false
	}
	g.ensureAdjacency()
	for _, nb := range g.Neighbors(u) {
		if nb.To == v {
			return nb.Weight, true
		}
	}
	return 0, false
}

// Edges returns the edge list in canonical (U < V) order. The returned
// slice is owned by the graph; callers must not mutate it.
func (g *Undirected) Edges() []Edge { return g.edges }

// Neighbors returns the incident edges of v. The returned slice aliases
// internal storage and is invalidated by the next AddEdge.
func (g *Undirected) Neighbors(v int) []Neighbor {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: Neighbors(%d) out of range [0,%d)", v, g.n))
	}
	g.ensureAdjacency()
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns the number of edges incident to v.
func (g *Undirected) Degree(v int) int {
	return len(g.Neighbors(v))
}

// WeightedDegree returns the sum of weights of edges incident to v.
func (g *Undirected) WeightedDegree(v int) float64 {
	total := 0.0
	for _, nb := range g.Neighbors(v) {
		total += nb.Weight
	}
	return total
}

// TotalEdgeWeight returns the sum of all edge weights.
func (g *Undirected) TotalEdgeWeight() float64 {
	total := 0.0
	for _, e := range g.edges {
		total += e.Weight
	}
	return total
}

// BuildAdjacency eagerly (re)builds the CSR adjacency arrays. Neighbors
// and Degree build them lazily on first use, which is not safe to trigger
// from multiple goroutines; code that shares a finished graph across
// goroutines (cost.Evaluator's concurrent callers do) must call BuildAdjacency
// once beforehand, after which concurrent Neighbors calls are read-only.
func (g *Undirected) BuildAdjacency() { g.ensureAdjacency() }

// ensureAdjacency rebuilds the CSR arrays after edge insertions.
func (g *Undirected) ensureAdjacency() {
	if !g.dirty && g.offsets != nil {
		return
	}
	counts := make([]int, g.n+1)
	for _, e := range g.edges {
		counts[e.U+1]++
		counts[e.V+1]++
	}
	for i := 1; i <= g.n; i++ {
		counts[i] += counts[i-1]
	}
	g.offsets = counts
	g.adj = make([]Neighbor, 2*len(g.edges))
	cursor := make([]int, g.n)
	copy(cursor, g.offsets[:g.n])
	for _, e := range g.edges {
		g.adj[cursor[e.U]] = Neighbor{To: e.V, Weight: e.Weight}
		cursor[e.U]++
		g.adj[cursor[e.V]] = Neighbor{To: e.U, Weight: e.Weight}
		cursor[e.V]++
	}
	// Keep neighbour lists sorted for deterministic iteration order across
	// runs and platforms.
	for v := 0; v < g.n; v++ {
		nbs := g.adj[g.offsets[v]:g.offsets[v+1]]
		slices.SortFunc(nbs, func(a, b Neighbor) int { return cmp.Compare(a.To, b.To) })
	}
	g.dirty = false
	g.seen = nil
}

// Clone returns a deep copy of g.
func (g *Undirected) Clone() *Undirected {
	c := NewUndirected(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	c.dirty = true
	return c
}

// ConnectedComponents returns the component id of every vertex and the
// component count. Component ids are dense in [0, count) and assigned in
// order of the lowest-numbered vertex in the component.
func (g *Undirected) ConnectedComponents() (ids []int, count int) {
	ids = make([]int, g.n)
	for i := range ids {
		ids[i] = -1
	}
	queue := make([]int, 0, g.n)
	for start := 0; start < g.n; start++ {
		if ids[start] != -1 {
			continue
		}
		ids[start] = count
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, nb := range g.Neighbors(v) {
				if ids[nb.To] == -1 {
					ids[nb.To] = count
					queue = append(queue, nb.To)
				}
			}
		}
		count++
	}
	return ids, count
}

// IsConnected reports whether every vertex is reachable from vertex 0
// (true for the empty and single-vertex graphs).
func (g *Undirected) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	_, count := g.ConnectedComponents()
	return count == 1
}

// Validate checks structural invariants: edge endpoints in range, no
// self-loops, no duplicates, non-negative weights. A graph built only
// through AddEdge always validates; the check guards deserialised inputs.
// The error names the first edge, in edge-list order, that breaks an
// invariant; a duplicate is the second occurrence of its pair.
//
// Validate only reads g. A valid graph costs a transient int32 list of
// neighbour ids (hasParallelEdges) instead of a map of pairs; an invalid
// one then runs the map check (firstInvalidEdge) to name the offending
// edge.
func (g *Undirected) Validate() error {
	for _, e := range g.edges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n || e.U == e.V || e.Weight < 0 {
			return g.firstInvalidEdge()
		}
	}
	if hasParallelEdges(g.n, g.edges) {
		return g.firstInvalidEdge()
	}
	return nil
}

// firstInvalidEdge returns the error of the first edge that is out of
// range, a self-loop, negatively weighted or the repeat of an earlier
// pair, and nil if there is none.
func (g *Undirected) firstInvalidEdge() error {
	seen := make(map[[2]int]bool, len(g.edges))
	for _, e := range g.edges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, g.n)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: self-loop at %d", e.U)
		}
		if e.Weight < 0 {
			return fmt.Errorf("graph: negative weight %v on (%d,%d)", e.Weight, e.U, e.V)
		}
		key := edgeKey(e.U, e.V)
		if seen[key] {
			return fmt.Errorf("graph: duplicate edge (%d,%d)", e.U, e.V)
		}
		seen[key] = true
	}
	return nil
}

// hasParallelEdges reports whether two of edges, whose endpoints must be
// in [0,n), join the same pair. Each edge is listed once, under its
// smaller endpoint, in a counting-sort CSR of int32 neighbour ids; a
// repeat is a neighbour already marked while scanning the same vertex.
func hasParallelEdges(n int, edges []Edge) bool {
	pos := make([]int32, n+1)
	for _, e := range edges {
		pos[min(e.U, e.V)]++
	}
	for u := 1; u <= n; u++ {
		pos[u] += pos[u-1]
	}
	// pos[u] ends u's list; filling backwards leaves it at the start.
	nbs := make([]int32, len(edges))
	for _, e := range edges {
		u := min(e.U, e.V)
		pos[u]--
		nbs[pos[u]] = int32(max(e.U, e.V))
	}
	mark := make([]int32, n) // mark[v] == u+1: v already listed under u
	for u := 0; u < n; u++ {
		for _, v := range nbs[pos[u]:pos[u+1]] {
			if mark[v] == int32(u+1) {
				return true
			}
			mark[v] = int32(u + 1)
		}
	}
	return false
}
