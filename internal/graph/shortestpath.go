package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// spItem is one entry in the Dijkstra priority queue.
type spItem struct {
	vertex int
	dist   float64
}

type spHeap []spItem

func (h spHeap) Len() int           { return len(h) }
func (h spHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h spHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *spHeap) Push(x any)        { *h = append(*h, x.(spItem)) }
func (h *spHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// ShortestPathsFrom computes single-source cheapest-path distances from
// src over the graph's edge weights (Dijkstra). Unreachable vertices get
// +Inf. Edge weights must be non-negative, which Validate guarantees.
func (g *Undirected) ShortestPathsFrom(src int) []float64 {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: ShortestPathsFrom(%d) out of range [0,%d)", src, g.n))
	}
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &spHeap{{vertex: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(spItem)
		if it.dist > dist[it.vertex] {
			continue // stale entry
		}
		for _, nb := range g.Neighbors(it.vertex) {
			if d := it.dist + nb.Weight; d < dist[nb.To] {
				dist[nb.To] = d
				heap.Push(h, spItem{vertex: nb.To, dist: d})
			}
		}
	}
	return dist
}

// CloseLinksDijkstra is ResourceGraph.CloseLinks computed by n runs of
// Dijkstra over the sparse topology instead of Floyd-Warshall over the
// dense matrix: O(n * m log n) versus O(n^3), the right choice for large
// sparse platforms. Both produce identical closures (verified against
// each other in the tests). Like CloseLinks it leaves a block platform
// as it is.
func (r *ResourceGraph) CloseLinksDijkstra() error {
	if r.IsBlock() {
		return nil
	}
	n := r.N()
	for s := 0; s < n; s++ {
		dist := r.Undirected.ShortestPathsFrom(s)
		row := r.links.Block[s*n : (s+1)*n]
		for b := 0; b < n; b++ {
			// Keep a cheaper direct entry if one exists (it cannot: the
			// direct link is a path too, so dist <= link always).
			if dist[b] < row[b] {
				row[b] = dist[b]
			}
		}
	}
	if !r.FullyLinked() {
		return fmt.Errorf("graph: resource topology %q is disconnected; links cannot be closed", r.Name)
	}
	return nil
}
