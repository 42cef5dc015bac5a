package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// stay unmatched and survive as singletons. The visit order is sorted as
// a 4-byte index permutation, so the 24-byte edges are never copied.
func HeavyEdgeMatching(g *Undirected) [][2]int {
	edges := g.Edges()
	order := make([]int32, len(edges))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &edges[order[i]], &edges[order[j]]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	matched := make([]bool, g.N())
	pairs := make([][2]int, 0, g.N()/2)
	for _, i := range order {
		e := edges[i]
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
//
// On a block platform the scan gives the same pairs in O(n*k) instead of
// O(n^2): a resource's links to block b all cost the same table entry, so
// its cheapest partner in b is b's lowest unmatched member above it, and
// the scan compares k such candidates instead of n resources.
func CheapestLinkMatching(r *ResourceGraph) [][2]int {
	if r.IsBlock() {
		return blockLinkMatching(r)
	}
	n := r.N()
	matched := make([]bool, n)
	picks := make([]linkPick, 0, n/2)
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
		picks = append(picks, linkPick{v, best, bestC})
	}
	return cheapestFirst(picks)
}

// linkPick is one pair of a cheapest-link matching and its link cost.
type linkPick struct {
	a, b int
	c    float64
}

// cheapestFirst orders the picks by cost, ties by their first resource,
// and returns them as pairs.
func cheapestFirst(picks []linkPick) [][2]int {
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

// blockLinkMatching is CheapestLinkMatching's scan on a block platform.
// members lists each block's resources in ascending order; next[b]
// indexes b's lowest member that may still be a partner. A member leaves
// for good once it is matched or the scan has passed it, so the cursors
// advance O(n) steps in all.
func blockLinkMatching(r *ResourceGraph) [][2]int {
	t := r.links
	n := r.N()
	next := make([]int, t.K+1)
	for _, a := range t.Labels {
		next[a+1]++
	}
	for a := 0; a < t.K; a++ {
		next[a+1] += next[a]
	}
	end := append([]int(nil), next[1:]...)
	members := make([]int32, n)
	fill := append([]int(nil), next[:t.K]...)
	for s, a := range t.Labels {
		members[fill[a]] = int32(s)
		fill[a]++
	}
	matched := make([]bool, n)
	picks := make([]linkPick, 0, n/2)
	for v := 0; v < n; v++ {
		if matched[v] {
			continue
		}
		matched[v] = true // no later resource may pick v
		row := t.Block[int(t.Labels[v])*t.K : (int(t.Labels[v])+1)*t.K]
		best, bestC := -1, math.Inf(1)
		for b, c := range row {
			i := next[b]
			for i < end[b] && matched[members[i]] {
				i++
			}
			next[b] = i
			if i == end[b] {
				continue
			}
			if w := int(members[i]); c < bestC || (c == bestC && w < best) {
				best, bestC = w, c
			}
		}
		if best < 0 {
			continue // last unmatched resource: stays a singleton
		}
		matched[best] = true
		picks = append(picks, linkPick{v, best, bestC})
	}
	return cheapestFirst(picks)
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
	// Collect the cross-cluster edges as canonical coarse pairs, sort
	// them stably by pair so each pair's run keeps edge-list order, and
	// merge every run in place into its sum from zero: the order and
	// start of the map build's accumulation, so the weights keep their
	// bits (a lone -0 sums to +0).
	cross := 0
	for _, e := range t.Edges() {
		if c.Map[e.U] != c.Map[e.V] {
			cross++
		}
	}
	edges := make([]Edge, 0, cross)
	for _, e := range t.Edges() {
		if cu, cv := c.Map[e.U], c.Map[e.V]; cu != cv {
			edges = append(edges, Edge{U: min(cu, cv), V: max(cu, cv), Weight: e.Weight})
		}
	}
	slices.SortStableFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	m := 0
	for i := 0; i < len(edges); {
		e := Edge{U: edges[i].U, V: edges[i].V}
		for ; i < len(edges) && edges[i].U == e.U && edges[i].V == e.V; i++ {
			e.Weight += edges[i].Weight
		}
		edges[m] = e
		m++
	}
	if m < len(edges) {
		edges = append(make([]Edge, 0, m), edges[:m]...) // drop the merged slots
	}
	out := NewTIGWithWeights(cw)
	out.Name = t.Name
	if err := out.adoptEdges(edges); err != nil {
		return nil, err
	}
	return out, nil
}

// ContractPlatform builds the coarse platform of c: each coarse
// resource's processing cost is the mean of its members' costs (merging
// two resources models spreading the cluster's work over both), and each
// coarse link cost is the mean link cost over all fine cross pairs. The
// platform must be fully linked (CloseLinks first for sparse topologies).
//
// A block platform's coarse platform is a block platform, built in
// O(n + k'^2) for k' <= cN coarse blocks instead of O(n^2) time and a
// cN^2 matrix. A coarse resource whose members share block a is pure and
// keeps a: every cross pair to another pure coarse resource of block b
// costs the table entry (a, b), and the mean of copies of one value is
// that value. Each impure coarse resource, whose members span blocks (a
// cheapest-link pair across blocks, when a block has no cheaper partner
// left), gets a block of its own, and its row is the mean of its members'
// rows: sum_x T[x][b] / |X| against a pure block b, and the mean over
// both member lists against another impure one. Blocks that only impure
// resources had are dropped, and the kept blocks are renumbered into a
// new k' x k' table.
//
// The block and dense builds sum the same fine costs in different
// orders, so they agree bit for bit whenever those sums are exact. They
// always are on integer tables such as gen.LargeInstance's, whose coarse
// means over pairs stay small dyadic fractions;
// TestBlockPlatformMatchesDenseExpansion holds the two forms to each
// other link for link.
//
// A dense platform's coarse platform is dense. Its link matrix is the
// only cN^2 buffer: the upper triangle accumulates each coarse pair's
// fine link sums, which are then divided in place by the pair count
// (clusters a and b have |a|*|b| cross pairs) and mirrored into the lower
// triangle. The platform adopts the matrix.
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
	if r.IsBlock() {
		if err := checkCosts(costs); err != nil {
			return nil, err
		}
		labels, block := contractBlocks(r.links, c)
		out := blockGraph(costs, labels, block)
		out.Name = r.Name
		return out, nil
	}
	link := make([]float64, cN*cN)
	fine := r.links.Block
	for i := 0; i < n; i++ {
		ci := c.Map[i]
		row := fine[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			cj := c.Map[j]
			if ci == cj {
				continue
			}
			a, b := ci, cj
			if a > b {
				a, b = b, a
			}
			link[a*cN+b] += row[j]
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

// contractBlocks returns the coarse labels and k' x k' table of c over
// the block platform links (see ContractPlatform). A coarse block stands
// for a list of fine blocks: one fine block a for the pure coarse
// resources of a, the member blocks of an impure coarse resource for its
// own block, whose diagonal entry is never read (it has one resource).
// Coarse blocks are numbered in order of their first coarse resource.
func contractBlocks(links LinkTable, c Contraction) ([]int32, []float64) {
	// first[cs] is coarse resource cs's first member's block, or
	// impure when its members span blocks.
	const impure = -2
	first := make([]int32, c.CoarseN)
	for cs := range first {
		first[cs] = -1
	}
	for s, cs := range c.Map {
		switch a := links.Labels[s]; first[cs] {
		case -1:
			first[cs] = a
		case a, impure:
		default:
			first[cs] = impure
		}
	}
	// parts[b] lists the fine blocks behind coarse block b; kept[a] is
	// the coarse block of fine block a's pure coarse resources.
	labels := make([]int32, c.CoarseN)
	kept := make([]int32, links.K)
	for a := range kept {
		kept[a] = -1
	}
	var parts [][]int32
	for cs, a := range first {
		if a == impure {
			labels[cs] = int32(len(parts))
			parts = append(parts, nil)
			continue
		}
		if kept[a] < 0 {
			kept[a] = int32(len(parts))
			parts = append(parts, []int32{a})
		}
		labels[cs] = kept[a]
	}
	for s, cs := range c.Map {
		if first[cs] == impure {
			parts[labels[cs]] = append(parts[labels[cs]], links.Labels[s])
		}
	}
	kc := len(parts)
	block := make([]float64, kc*kc)
	for a, x := range parts {
		for b := a; b < kc; b++ {
			sum := 0.0
			for _, xa := range x {
				for _, ya := range parts[b] {
					sum += links.Block[int(xa)*links.K+int(ya)]
				}
			}
			mean := sum / float64(len(x)*len(parts[b]))
			block[a*kc+b], block[b*kc+a] = mean, mean
		}
	}
	return labels, block
}
