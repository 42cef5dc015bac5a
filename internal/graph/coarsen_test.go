package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"matchsim/internal/memcheck"
	"matchsim/internal/xrand"
)

func tigFromEdges(n int, weights []float64, edges [][3]float64) *TIG {
	t := NewTIG(n)
	copy(t.Weights, weights)
	for _, e := range edges {
		t.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	return t
}

// TestHeavyEdgeMatchingBasics: heaviest edges matched first, each vertex
// at most once, pair order = visit order (so truncating the slice keeps
// the heaviest pairs).
func TestHeavyEdgeMatchingBasics(t *testing.T) {
	g := NewUndirected(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 9) // heaviest: must be matched first
	g.MustAddEdge(2, 3, 2)
	g.MustAddEdge(3, 4, 7) // second heaviest among remaining
	g.MustAddEdge(4, 5, 3)
	pairs := HeavyEdgeMatching(g)
	// Greedy heaviest-first on the path: (1,2) then (3,4); every other
	// edge touches a matched endpoint, so 0 and 5 stay unmatched.
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2: %v", len(pairs), pairs)
	}
	if pairs[0] != [2]int{1, 2} || pairs[1] != [2]int{3, 4} {
		t.Fatalf("unexpected matching order: %v", pairs)
	}
	seen := map[int]bool{}
	for _, p := range pairs {
		if seen[p[0]] || seen[p[1]] {
			t.Fatalf("vertex matched twice: %v", pairs)
		}
		seen[p[0]], seen[p[1]] = true, true
	}
}

// TestHeavyEdgeMatchingOnlyRealEdges: the matcher is edge-driven and must
// never pair vertices that share no edge.
func TestHeavyEdgeMatchingOnlyRealEdges(t *testing.T) {
	g := NewUndirected(4)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(2, 3, 1)
	for _, p := range HeavyEdgeMatching(g) {
		if _, ok := g.EdgeWeight(p[0], p[1]); !ok {
			t.Fatalf("matched pair %v is not an edge", p)
		}
	}
}

// TestHeavyEdgeMatchingStar: a star graph can match only one of its
// spokes — the heaviest.
func TestHeavyEdgeMatchingStar(t *testing.T) {
	g := NewUndirected(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 4)
	g.MustAddEdge(0, 3, 2)
	g.MustAddEdge(0, 4, 3)
	pairs := HeavyEdgeMatching(g)
	if len(pairs) != 1 || pairs[0] != [2]int{0, 2} {
		t.Fatalf("star matching = %v, want [[0 2]]", pairs)
	}
}

// TestHeavyEdgeMatchingIsolatedVertices: isolated vertices simply stay
// unmatched; an edgeless graph yields an empty matching.
func TestHeavyEdgeMatchingIsolatedVertices(t *testing.T) {
	g := NewUndirected(5)
	g.MustAddEdge(1, 3, 2)
	pairs := HeavyEdgeMatching(g)
	if len(pairs) != 1 || pairs[0] != [2]int{1, 3} {
		t.Fatalf("matching = %v, want [[1 3]]", pairs)
	}
	if got := HeavyEdgeMatching(NewUndirected(4)); len(got) != 0 {
		t.Fatalf("edgeless graph produced pairs: %v", got)
	}
}

// TestContractTIGConservation: total vertex weight is conserved exactly;
// total edge weight is conserved minus the collapsed intra-pair edges;
// parallel coarse edges (duplicate after mapping) are merged by summing.
func TestContractTIGConservation(t *testing.T) {
	// Square 0-1-2-3 with a diagonal: contracting {0,1} and {2,3} folds
	// the two "vertical" edges (0-3, 1-2) into ONE coarse edge whose
	// weight is their sum — the duplicate-edge merge case.
	tig := tigFromEdges(4, []float64{1, 2, 3, 4}, [][3]float64{
		{0, 1, 10}, // intra pair A — collapses
		{2, 3, 20}, // intra pair B — collapses
		{0, 3, 5},  // A-B
		{1, 2, 7},  // A-B duplicate after contraction
	})
	c, err := ContractionFromPairs(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ContractTIG(tig, c)
	if err != nil {
		t.Fatal(err)
	}
	if ct.N() != 2 {
		t.Fatalf("coarse n = %d, want 2", ct.N())
	}
	if ct.Weights[0] != 3 || ct.Weights[1] != 7 {
		t.Fatalf("coarse weights %v, want [3 7]", ct.Weights)
	}
	if ct.M() != 1 {
		t.Fatalf("coarse m = %d, want 1 (duplicates merged)", ct.M())
	}
	if w, ok := ct.Undirected.EdgeWeight(0, 1); !ok || w != 12 {
		t.Fatalf("merged edge weight %v, want 5+7=12", w)
	}
	if got, want := ct.TotalWork(), tig.TotalWork(); got != want {
		t.Fatalf("vertex weight not conserved: %v vs %v", got, want)
	}
	// Edge weight: fine total minus the collapsed intra-cluster edges.
	if got, want := ct.TotalEdgeWeight(), tig.TotalEdgeWeight()-10-20; got != want {
		t.Fatalf("edge weight %v, want %v", got, want)
	}
}

// TestContractTIGIsolatedAndUnmatched: unmatched vertices become
// singleton clusters with their weight intact.
func TestContractTIGIsolatedAndUnmatched(t *testing.T) {
	tig := tigFromEdges(5, []float64{1, 2, 3, 4, 5}, [][3]float64{{0, 1, 6}})
	c, err := ContractionFromPairs(5, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ContractTIG(tig, c)
	if err != nil {
		t.Fatal(err)
	}
	if ct.N() != 4 {
		t.Fatalf("coarse n = %d, want 4", ct.N())
	}
	if ct.TotalWork() != tig.TotalWork() {
		t.Fatalf("vertex weight not conserved")
	}
	if ct.M() != 0 {
		t.Fatalf("only edge was intra-cluster, coarse m = %d", ct.M())
	}
}

// TestContractionFromPairsValidation: overlapping pairs and out-of-range
// vertices are rejected; coarse ids are assigned by ascending smallest
// member so the mapping is deterministic.
func TestContractionFromPairsValidation(t *testing.T) {
	if _, err := ContractionFromPairs(4, [][2]int{{0, 1}, {1, 2}}); err == nil {
		t.Fatalf("overlapping pairs accepted")
	}
	if _, err := ContractionFromPairs(4, [][2]int{{0, 4}}); err == nil {
		t.Fatalf("out-of-range vertex accepted")
	}
	if _, err := ContractionFromPairs(4, [][2]int{{2, 2}}); err == nil {
		t.Fatalf("self-pair accepted")
	}
	c, err := ContractionFromPairs(5, [][2]int{{3, 4}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 2, 2} // clusters {0,2}, {1}, {3,4} by smallest member
	for v, cv := range c.Map {
		if cv != want[v] {
			t.Fatalf("Map = %v, want %v", c.Map, want)
		}
	}
	if c.CoarseN != 3 {
		t.Fatalf("CoarseN = %d, want 3", c.CoarseN)
	}
}

// TestCheapestLinkMatching: pairs are chosen cheapest-link-first on a
// fully linked platform.
func TestCheapestLinkMatching(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 1, 1, 1})
	r.MustAddLink(0, 1, 9)
	r.MustAddLink(0, 2, 1) // cheapest — matched first
	r.MustAddLink(0, 3, 8)
	r.MustAddLink(1, 2, 7)
	r.MustAddLink(1, 3, 2) // cheapest among remaining
	r.MustAddLink(2, 3, 6)
	pairs := CheapestLinkMatching(r)
	if len(pairs) != 2 || pairs[0] != [2]int{0, 2} || pairs[1] != [2]int{1, 3} {
		t.Fatalf("matching = %v, want [[0 2] [1 3]]", pairs)
	}
}

// TestContractPlatformMeans: coarse processing costs are the mean of the
// member costs and coarse links the mean of the cross pair links.
func TestContractPlatformMeans(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{2, 4, 6, 10})
	r.MustAddLink(0, 1, 1)
	r.MustAddLink(0, 2, 2)
	r.MustAddLink(0, 3, 3)
	r.MustAddLink(1, 2, 4)
	r.MustAddLink(1, 3, 5)
	r.MustAddLink(2, 3, 6)
	c, err := ContractionFromPairs(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := ContractPlatform(r, c)
	if err != nil {
		t.Fatal(err)
	}
	if cr.N() != 2 {
		t.Fatalf("coarse n = %d, want 2", cr.N())
	}
	if cr.Costs[0] != 3 || cr.Costs[1] != 8 {
		t.Fatalf("coarse costs %v, want [3 8]", cr.Costs)
	}
	// Cross pairs (0,2),(0,3),(1,2),(1,3) have links 2,3,4,5; mean 3.5.
	if got := cr.LinkCost(0, 1); got != 3.5 {
		t.Fatalf("coarse link %v, want 3.5", got)
	}
	if !cr.FullyLinked() {
		t.Fatalf("coarse platform not fully linked")
	}
}

// TestCoarsenLadderConservesWeight walks a random multi-step ladder and
// checks the satellite invariant at every level: vertex weight exactly
// conserved, edge weight never increasing, both sides same size.
func TestCoarsenLadderConservesWeight(t *testing.T) {
	rng := xrand.New(17)
	n := 40
	tig := NewTIG(n)
	for i := range tig.Weights {
		tig.Weights[i] = float64(rng.IntRange(1, 10))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.2 {
				tig.MustAddEdge(u, v, float64(rng.IntRange(1, 5)))
			}
		}
	}
	wantWork := tig.TotalWork()
	cur := tig
	for level := 0; level < 4 && cur.N() > 4; level++ {
		pairs := HeavyEdgeMatching(cur.Undirected)
		if len(pairs) == 0 {
			break
		}
		c, err := ContractionFromPairs(cur.N(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		next, err := ContractTIG(cur, c)
		if err != nil {
			t.Fatal(err)
		}
		if next.N() != cur.N()-len(pairs) {
			t.Fatalf("level %d: n %d -> %d with %d pairs", level, cur.N(), next.N(), len(pairs))
		}
		if math.Abs(next.TotalWork()-wantWork) > 1e-9 {
			t.Fatalf("level %d: vertex weight %v, want %v", level, next.TotalWork(), wantWork)
		}
		if next.TotalEdgeWeight() > cur.TotalEdgeWeight()+1e-9 {
			t.Fatalf("level %d: edge weight grew %v -> %v",
				level, cur.TotalEdgeWeight(), next.TotalEdgeWeight())
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("level %d: invalid coarse TIG: %v", level, err)
		}
		cur = next
	}
}

// contractPlatformFourBuffers is the four-buffer ContractPlatform that the
// one-buffer build replaced (separate sum, count and mean matrices, then
// a NewResourceGraphDense copy), kept as the reference the differential
// test holds the production build to, bit for bit.
func contractPlatformFourBuffers(r *ResourceGraph, c Contraction) (*ResourceGraph, error) {
	n := r.N()
	cN := c.CoarseN
	costSum := make([]float64, cN)
	costCnt := make([]int, cN)
	for s, cs := range c.Map {
		costSum[cs] += r.Costs[s]
		costCnt[cs]++
	}
	costs := make([]float64, cN)
	for s := range costs {
		costs[s] = costSum[s] / float64(costCnt[s])
	}
	linkSum := make([]float64, cN*cN)
	linkCnt := make([]int, cN*cN)
	for i := 0; i < n; i++ {
		ci := c.Map[i]
		for j := i + 1; j < n; j++ {
			cj := c.Map[j]
			if ci == cj {
				continue
			}
			a, b := ci, cj
			if a > b {
				a, b = b, a
			}
			linkSum[a*cN+b] += r.LinkCost(i, j)
			linkCnt[a*cN+b]++
		}
	}
	link := make([]float64, cN*cN)
	for a := 0; a < cN; a++ {
		for b := a + 1; b < cN; b++ {
			mean := linkSum[a*cN+b] / float64(linkCnt[a*cN+b])
			link[a*cN+b] = mean
			link[b*cN+a] = mean
		}
	}
	out, err := NewResourceGraphDense(costs, link)
	if err != nil {
		return nil, err
	}
	out.Name = r.Name
	return out, nil
}

// randomDensePlatform returns an n-resource platform with random
// processing costs in [1, 5) and symmetric link costs in [1, 10).
func randomDensePlatform(t testing.TB, rng *xrand.RNG, n int) *ResourceGraph {
	t.Helper()
	costs := make([]float64, n)
	for s := range costs {
		costs[s] = rng.Float64Range(1, 5)
	}
	link := make([]float64, n*n)
	for s := 0; s < n; s++ {
		for b := s + 1; b < n; b++ {
			v := rng.Float64Range(1, 10)
			link[s*n+b], link[b*n+s] = v, v
		}
	}
	r, err := NewResourceGraphDense(costs, link)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestContractPlatformMatchesFourBufferBuild: on random platforms, under
// both cheapest-link pair contractions and contractions with clusters of
// up to five resources, ContractPlatform gives the reference build's
// costs and link matrix bit for bit.
func TestContractPlatformMatchesFourBufferBuild(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 40; trial++ {
		n := rng.IntRange(2, 90)
		r := randomDensePlatform(t, rng, n)
		var c Contraction
		if trial%2 == 0 {
			var err error
			if c, err = ContractionFromPairs(n, CheapestLinkMatching(r)); err != nil {
				t.Fatal(err)
			}
		} else {
			// Consecutive runs of 1-5 resources form one cluster each,
			// visited in a shuffled order.
			perm := make([]int, n)
			rng.PermInto(perm)
			c.Map = make([]int, n)
			for i := 0; i < n; {
				k := rng.IntRange(1, 5)
				for ; k > 0 && i < n; k-- {
					c.Map[perm[i]] = c.CoarseN
					i++
				}
				c.CoarseN++
			}
		}
		got, err := ContractPlatform(r, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := contractPlatformFourBuffers(r, c)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffFloats("costs", got.Costs, want.Costs) + diffLinks("coarse", got.LinkTable(), want.LinkTable()); d != "" {
			t.Fatalf("trial %d (n=%d, cN=%d): differs from the reference build: %s", trial, n, c.CoarseN, d)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestContractPlatformHeapBound: contracting a 1,140-resource platform by
// its cheapest-link matching (cN = 570) allocates at most 1.25 cN^2
// floats — the coarse link matrix plus O(n) bookkeeping. The four-buffer
// build allocated four cN^2 buffers.
func TestContractPlatformHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const n = 1140
	r := randomDensePlatform(t, xrand.New(29), n)
	c, err := ContractionFromPairs(n, CheapestLinkMatching(r))
	if err != nil {
		t.Fatal(err)
	}
	cN := c.CoarseN
	if cN != n/2 {
		t.Fatalf("coarse n = %d, want %d", cN, n/2)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cr, err := ContractPlatform(r, c)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(cr)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(1.25 * float64(cN*cN*8))
	t.Logf("cN=%d: allocated %d bytes (%.2f cN^2 floats)", cN, got, float64(got)/float64(cN*cN*8))
	if got > limit {
		t.Errorf("ContractPlatform allocated %d bytes at cN=%d, want at most %d", got, cN, limit)
	}
}

// contractTIGWithMap is the ContractTIG that summed coarse edges in a
// map and added them one AddEdge at a time, kept as the reference the
// bucketed build is held to, bit for bit.
func contractTIGWithMap(t *TIG, c Contraction) (*TIG, error) {
	cw := make([]float64, c.CoarseN)
	for v, cv := range c.Map {
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
	slices.Sort(keys)
	out := NewTIGWithWeights(cw)
	out.Name = t.Name
	for _, k := range keys {
		if err := out.AddEdge(int(k/int64(c.CoarseN)), int(k%int64(c.CoarseN)), acc[k]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// randomContraction returns a contraction of n vertices into clusters of
// 1-5 vertices each, visited in a shuffled order.
func randomContraction(rng *xrand.RNG, n int) Contraction {
	perm := make([]int, n)
	rng.PermInto(perm)
	c := Contraction{Map: make([]int, n)}
	for i := 0; i < n; {
		for k := rng.IntRange(1, 5); k > 0 && i < n; k-- {
			c.Map[perm[i]] = c.CoarseN
			i++
		}
		c.CoarseN++
	}
	return c
}

// TestContractTIGMatchesMapBuild: on random TIGs with fractional weights
// (so summation order shows in the bits), under heavy-edge pair
// contractions and contractions with clusters of up to five vertices,
// ContractTIG gives the map build's weights and edge list bit for bit,
// with edges in ascending (u,v) order.
func TestContractTIGMatchesMapBuild(t *testing.T) {
	rng := xrand.New(43)
	for trial := 0; trial < 60; trial++ {
		n := rng.IntRange(2, 300)
		tig := NewTIG(n)
		for v := range tig.Weights {
			tig.Weights[v] = rng.Float64Range(0, 10)
		}
		for m := rng.Intn(4 * n); m > 0; m-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !tig.HasEdge(u, v) {
				tig.MustAddEdge(u, v, rng.Float64Range(0, 1))
			}
		}
		c := randomContraction(rng, n)
		if trial%2 == 0 {
			var err error
			if c, err = ContractionFromPairs(n, HeavyEdgeMatching(tig.Undirected)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ContractTIG(tig, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := contractTIGWithMap(tig, c)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffTIG(got, want); d != "" {
			t.Fatalf("trial %d (n=%d, cN=%d): %s", trial, n, c.CoarseN, d)
		}
		if cap(got.Edges()) != len(got.Edges()) {
			t.Fatalf("trial %d: coarse edge list has capacity %d for %d edges", trial, cap(got.Edges()), len(got.Edges()))
		}
	}
}

// randomBlockPlatform returns an n-resource block platform with k blocks
// in random order, integer processing costs and an integer table whose
// diagonal is not always a block's cheapest link, so cheapest-link pairs
// cross blocks.
func randomBlockPlatform(t testing.TB, rng *xrand.RNG, n, k int) *ResourceGraph {
	t.Helper()
	costs := make([]float64, n)
	labels := make([]int32, n)
	for s := range costs {
		costs[s] = float64(rng.IntRange(1, 9))
		labels[s] = int32(rng.Intn(k))
	}
	block := make([]float64, k*k)
	for a := 0; a < k; a++ {
		block[a*k+a] = float64(rng.IntRange(1, 12))
		for b := a + 1; b < k; b++ {
			v := float64(rng.IntRange(4, 40))
			block[a*k+b], block[b*k+a] = v, v
		}
	}
	r, err := NewResourceGraphBlocks(costs, labels, block)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameLinks reports the first resource pair whose link costs differ in
// their bits between two platforms of equal size, or "".
func sameLinks(a, b *ResourceGraph) string {
	for s := 0; s < a.N(); s++ {
		for v := 0; v < a.N(); v++ {
			if x, y := a.LinkCost(s, v), b.LinkCost(s, v); math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Sprintf("link (%d,%d): %v vs %v", s, v, x, y)
			}
		}
	}
	return ""
}

// TestBlockLadderMatchesDense walks coarsening ladders of random block
// platforms with integer tables, where some cheapest-link pairs cross
// blocks, in lockstep with their dense expansions. At every level the
// block platform's cheapest-link matching equals the dense scan's, and
// its block contraction, under a truncated prefix of that matching, is a
// block platform with the dense contraction's costs and links bit for
// bit, with at most one block per coarse resource. One-level contractions
// into clusters of up to five resources agree the same way.
func TestBlockLadderMatchesDense(t *testing.T) {
	rng := xrand.New(47)
	crossed := 0
	for trial := 0; trial < 30; trial++ {
		n := rng.IntRange(2, 160)
		block := randomBlockPlatform(t, rng, n, rng.IntRange(1, 12))
		dense := block.Dense()
		if d := sameLinks(block, dense); d != "" {
			t.Fatalf("trial %d: dense expansion differs at %s", trial, d)
		}
		c := randomContraction(rng, n)
		cb, err := ContractPlatform(block, c)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := ContractPlatform(dense, c)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffFloats("costs", cb.Costs, cd.Costs) + sameLinks(cb, cd); !cb.IsBlock() || d != "" {
			t.Fatalf("trial %d (n=%d, cN=%d): clustered contraction differs (block %v): %s", trial, n, c.CoarseN, cb.IsBlock(), d)
		}
		for level := 0; block.N() > 2; level++ {
			pairs := CheapestLinkMatching(block)
			if want := CheapestLinkMatching(dense); !slices.Equal(pairs, want) {
				t.Fatalf("trial %d level %d: matching %v, dense scan %v", trial, level, pairs, want)
			}
			lt := block.LinkTable()
			for _, p := range pairs {
				if lt.Labels[p[0]] != lt.Labels[p[1]] {
					crossed++
				}
			}
			if len(pairs) == 0 {
				break
			}
			c, err := ContractionFromPairs(block.N(), pairs[:rng.IntRange(1, len(pairs))])
			if err != nil {
				t.Fatal(err)
			}
			if block, err = ContractPlatform(block, c); err != nil {
				t.Fatal(err)
			}
			if dense, err = ContractPlatform(dense, c); err != nil {
				t.Fatal(err)
			}
			if d := diffFloats("costs", block.Costs, dense.Costs) + sameLinks(block, dense); !block.IsBlock() || d != "" {
				t.Fatalf("trial %d level %d (cN=%d): contraction differs (block %v): %s", trial, level, c.CoarseN, block.IsBlock(), d)
			}
			if k := block.LinkTable().K; k > block.N() && k > lt.K {
				t.Fatalf("trial %d level %d: %d blocks for %d resources", trial, level, k, block.N())
			}
			if err := block.Validate(); err != nil {
				t.Fatalf("trial %d level %d: %v", trial, level, err)
			}
		}
	}
	if crossed == 0 {
		t.Fatal("no cheapest-link pair crossed blocks; the ladders never left the pure case")
	}
}
