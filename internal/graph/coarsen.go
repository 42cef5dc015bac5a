package graph

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the coarsening half of the multilevel mapping
// pipeline (cf. Schulz & Woydt's multilevel process mapping): a greedy
// heavy-edge matching over the TIG pairs tasks that communicate heavily,
// a cheapest-link matching over the platform pairs resources that talk
// cheaply, and the two contractions build the next-coarser level with
// vertex weights aggregated and edge weights summed. The solver truncates
// both matchings to the same size so every level keeps |Vt| = |Vr|.

// HeavyEdgeMatching returns a maximal matching of g that prefers heavy
// edges: edges are visited in descending weight order (ties broken by
// ascending canonical (u,v)) and greedily matched. Pairs are returned in
// visit order, so any prefix of the result is a heaviest-first partial
// matching — the truncation the lockstep-square coarsener relies on.
// Isolated vertices and star centres that lose the greedy race simply
// stay unmatched and survive as singletons.
func HeavyEdgeMatching(g *Undirected) [][2]int {
	edges := append([]Edge(nil), g.Edges()...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight > edges[j].Weight
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	matched := make([]bool, g.N())
	pairs := make([][2]int, 0, g.N()/2)
	for _, e := range edges {
		if !matched[e.U] && !matched[e.V] {
			matched[e.U], matched[e.V] = true, true
			pairs = append(pairs, [2]int{e.U, e.V})
		}
	}
	return pairs
}

// CheapestLinkMatching returns a maximal matching over the platform's
// link costs that prefers cheap links, pairing resources whose merger
// least distorts the communication model. Each unmatched resource
// (ascending id) greedily grabs its cheapest unmatched partner (ties to
// the lowest id); the chosen pairs are then ordered cheapest first so any
// prefix is a cheapest-first partial matching. O(n^2) — it scans each
// resource's costs instead of sorting all n^2/2 pairs.
func CheapestLinkMatching(r *ResourceGraph) [][2]int {
	n := r.N()
	matched := make([]bool, n)
	type pick struct {
		a, b int
		c    float64
	}
	picks := make([]pick, 0, n/2)
	for v := 0; v < n; v++ {
		if matched[v] {
			continue
		}
		best, bestC := -1, math.Inf(1)
		for w := v + 1; w < n; w++ {
			if matched[w] {
				continue
			}
			if c := r.LinkCost(v, w); c < bestC {
				best, bestC = w, c
			}
		}
		if best < 0 {
			continue // last unmatched resource: stays a singleton
		}
		matched[v], matched[best] = true, true
		picks = append(picks, pick{v, best, bestC})
	}
	sort.Slice(picks, func(i, j int) bool {
		if picks[i].c != picks[j].c {
			return picks[i].c < picks[j].c
		}
		return picks[i].a < picks[j].a
	})
	pairs := make([][2]int, len(picks))
	for i, p := range picks {
		pairs[i] = [2]int{p.a, p.b}
	}
	return pairs
}

// Contraction maps a fine graph onto its coarse quotient: Map[v] is the
// coarse vertex fine vertex v collapses into, CoarseN the coarse vertex
// count. Coarse ids are assigned in ascending order of each cluster's
// smallest fine vertex, so contraction is deterministic.
type Contraction struct {
	CoarseN int
	Map     []int
}

// ContractionFromPairs builds the contraction that merges each of the
// given disjoint pairs and keeps every other vertex as a singleton.
func ContractionFromPairs(n int, pairs [][2]int) (Contraction, error) {
	partner := make([]int, n)
	for v := range partner {
		partner[v] = -1
	}
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return Contraction{}, fmt.Errorf("graph: invalid matching pair (%d,%d) for n=%d", u, v, n)
		}
		if partner[u] != -1 || partner[v] != -1 {
			return Contraction{}, fmt.Errorf("graph: matching pairs not disjoint at (%d,%d)", u, v)
		}
		partner[u], partner[v] = v, u
	}
	c := Contraction{Map: make([]int, n)}
	for v := range c.Map {
		c.Map[v] = -1
	}
	for v := 0; v < n; v++ {
		if c.Map[v] != -1 {
			continue
		}
		c.Map[v] = c.CoarseN
		if w := partner[v]; w != -1 {
			c.Map[w] = c.CoarseN
		}
		c.CoarseN++
	}
	return c, nil
}

// ContractTIG builds the coarse TIG of c: coarse vertex weights are the
// sums of their members' weights, parallel fine edges between the same
// coarse pair merge with summed weights, and intra-cluster edges vanish
// (their communication becomes local). Total vertex weight is conserved
// exactly; total edge weight drops by exactly the weight of the collapsed
// intra-cluster edges. The coarse edge set is emitted in ascending (u,v)
// order, so repeated contractions are bit-deterministic.
func ContractTIG(t *TIG, c Contraction) (*TIG, error) {
	n := t.N()
	if len(c.Map) != n {
		return nil, fmt.Errorf("graph: contraction maps %d vertices, TIG has %d", len(c.Map), n)
	}
	cw := make([]float64, c.CoarseN)
	for v, cv := range c.Map {
		if cv < 0 || cv >= c.CoarseN {
			return nil, fmt.Errorf("graph: contraction maps vertex %d to %d outside [0,%d)", v, cv, c.CoarseN)
		}
		cw[cv] += t.Weights[v]
	}
	acc := make(map[int64]float64, len(t.Edges()))
	for _, e := range t.Edges() {
		cu, cv := c.Map[e.U], c.Map[e.V]
		if cu == cv {
			continue
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		acc[int64(cu)*int64(c.CoarseN)+int64(cv)] += e.Weight
	}
	keys := make([]int64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := NewTIGWithWeights(cw)
	out.Name = t.Name
	for _, k := range keys {
		u := int(k / int64(c.CoarseN))
		v := int(k % int64(c.CoarseN))
		if err := out.AddEdge(u, v, acc[k]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ContractPlatform builds the coarse platform of c: each coarse
// resource's processing cost is the mean of its members' costs (merging
// two resources models spreading the cluster's work over both), and each
// coarse link cost is the mean link cost over all fine cross pairs. The
// platform must be fully linked (CloseLinks first for sparse topologies);
// a block platform's fine costs are read through its labels, in the same
// order, so it gives the same coarse platform as its dense expansion. The
// coarse platform is returned dense.
//
// The coarse link matrix is the only cN^2 buffer: the upper triangle
// accumulates each coarse pair's fine link sums, which are then divided
// in place by the pair count (clusters a and b have |a|*|b| cross pairs)
// and mirrored into the lower triangle. The platform adopts the matrix.
func ContractPlatform(r *ResourceGraph, c Contraction) (*ResourceGraph, error) {
	n := r.N()
	if len(c.Map) != n {
		return nil, fmt.Errorf("graph: contraction maps %d vertices, platform has %d", len(c.Map), n)
	}
	if !r.FullyLinked() {
		return nil, fmt.Errorf("graph: platform must be fully linked before coarsening (call CloseLinks)")
	}
	cN := c.CoarseN
	costs := make([]float64, cN)
	size := make([]int, cN)
	for s, cs := range c.Map {
		if cs < 0 || cs >= cN {
			return nil, fmt.Errorf("graph: contraction maps resource %d to %d outside [0,%d)", s, cs, cN)
		}
		costs[cs] += r.Costs[s]
		size[cs]++
	}
	for s := range costs {
		costs[s] /= float64(size[s])
	}
	link := make([]float64, cN*cN)
	fine := r.links
	for i := 0; i < n; i++ {
		ci := c.Map[i]
		// Fine row i: c_{i,j} = row[j] on a dense platform and
		// row[labels[j]] on a block platform, for j != i.
		li := i
		if fine.Labels != nil {
			li = int(fine.Labels[i])
		}
		row := fine.Block[li*fine.K : (li+1)*fine.K]
		for j := i + 1; j < n; j++ {
			cj := c.Map[j]
			if ci == cj {
				continue
			}
			a, b := ci, cj
			if a > b {
				a, b = b, a
			}
			lj := j
			if fine.Labels != nil {
				lj = int(fine.Labels[j])
			}
			link[a*cN+b] += row[lj]
		}
	}
	for a := 0; a < cN; a++ {
		for b := a + 1; b < cN; b++ {
			mean := link[a*cN+b] / float64(size[a]*size[b])
			link[a*cN+b] = mean
			link[b*cN+a] = mean
		}
	}
	if err := checkDense(costs, link); err != nil {
		return nil, err
	}
	out := denseGraph(costs, link)
	out.Name = r.Name
	return out, nil
}
