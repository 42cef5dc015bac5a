package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"matchsim/internal/xrand"
)

func TestAddEdgeAndQueries(t *testing.T) {
	g := NewUndirected(4)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(2, 1, 3)
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing in one direction")
	}
	if g.HasEdge(0, 2) || g.HasEdge(3, 3) {
		t.Fatal("phantom edge")
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 3 {
		t.Fatalf("EdgeWeight(1,2) = %v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Fatal("EdgeWeight on missing edge reported ok")
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := NewUndirected(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(-1, 1, 1); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
	g.MustAddEdge(0, 1, 1)
	if err := g.AddEdge(1, 0, 2); err == nil {
		t.Fatal("duplicate (reversed) edge accepted")
	}
}

// TestAddEdgeDuplicatesAcrossAdjacency checks that duplicates are
// rejected both while the graph is under construction and after its
// adjacency is built, that HasEdge agrees at each stage, and that the
// edge list keeps insertion order in canonical form.
func TestAddEdgeDuplicatesAcrossAdjacency(t *testing.T) {
	g := NewUndirected(4)
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(2, 1, 2)
	if err := g.AddEdge(0, 1, 3); err == nil {
		t.Fatal("duplicate accepted before the adjacency was built")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong before the adjacency was built")
	}
	g.BuildAdjacency()
	if err := g.AddEdge(1, 2, 3); err == nil {
		t.Fatal("duplicate accepted after the adjacency was built")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong after the adjacency was built")
	}
	g.MustAddEdge(3, 0, 4)
	if err := g.AddEdge(0, 3, 5); err == nil {
		t.Fatal("duplicate of an edge added after the build accepted")
	}
	if !g.HasEdge(3, 0) || !g.HasEdge(2, 1) || g.HasEdge(2, 3) {
		t.Fatal("HasEdge wrong after adding to a built graph")
	}
	c := g.Clone()
	if err := c.AddEdge(2, 1, 6); err == nil {
		t.Fatal("clone accepted a duplicate of a copied edge")
	}
	want := []Edge{{0, 1, 1}, {1, 2, 2}, {0, 3, 4}}
	for _, h := range []*Undirected{g, c} {
		if fmt.Sprint(h.Edges()) != fmt.Sprint(want) {
			t.Fatalf("edges %v, want %v", h.Edges(), want)
		}
	}
	if err := g.AddEdge(2, 2, 1); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("self-loop error %v", err)
	}
	if err := g.AddEdge(1, 0, 1); err == nil || err.Error() != "graph: duplicate edge (1,0)" {
		t.Fatalf("duplicate error %v", err)
	}

	// Past scanEdges edges the duplicate set takes over from the scan.
	const n = 256
	rng := xrand.New(3)
	big := NewUndirected(n)
	present := map[[2]int]bool{}
	var order []Edge
	for step := 0; len(order) < 4*scanEdges; step++ {
		if step == 3*scanEdges {
			big.BuildAdjacency()
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		key := [2]int{min(u, v), max(u, v)}
		if got := big.HasEdge(v, u); got != present[key] {
			t.Fatalf("step %d: HasEdge(%d,%d) = %t, want %t", step, v, u, got, present[key])
		}
		err := big.AddEdge(u, v, float64(step))
		if present[key] != (err != nil) {
			t.Fatalf("step %d: AddEdge(%d,%d) error %v with the edge present %t", step, u, v, err, present[key])
		}
		if err == nil {
			present[key] = true
			order = append(order, Edge{key[0], key[1], float64(step)})
		}
	}
	if fmt.Sprint(big.Edges()) != fmt.Sprint(order) {
		t.Fatal("edge list lost insertion order")
	}
}

// BenchmarkAddEdge builds a graph of m distinct random edges on m/4
// vertices through AddEdge. The duplicate check is O(1), so the time per
// edge should not grow with m.
func BenchmarkAddEdge(b *testing.B) {
	for _, m := range []int{4096, 16384} {
		n := m / 4
		rng := xrand.New(uint64(m))
		seen := make(map[[2]int]bool, m)
		var edges [][2]int
		for len(edges) < m {
			u, v := rng.Intn(n), rng.Intn(n)
			if key := [2]int{min(u, v), max(u, v)}; u != v && !seen[key] {
				seen[key] = true
				edges = append(edges, [2]int{u, v})
			}
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := NewUndirected(n)
				for _, e := range edges {
					if err := g.AddEdge(e[0], e[1], 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func TestNeighborsSortedAndComplete(t *testing.T) {
	g := NewUndirected(5)
	g.MustAddEdge(3, 0, 1)
	g.MustAddEdge(0, 4, 2)
	g.MustAddEdge(1, 0, 3)
	nbs := g.Neighbors(0)
	if len(nbs) != 3 {
		t.Fatalf("deg(0)=%d", len(nbs))
	}
	want := []Neighbor{{1, 3}, {3, 1}, {4, 2}}
	for i, nb := range nbs {
		if nb != want[i] {
			t.Fatalf("Neighbors(0)[%d] = %v, want %v", i, nb, want[i])
		}
	}
	if g.Degree(2) != 0 {
		t.Fatalf("deg(2)=%d", g.Degree(2))
	}
}

func TestNeighborsAfterMutation(t *testing.T) {
	g := NewUndirected(4)
	g.MustAddEdge(0, 1, 1)
	if g.Degree(0) != 1 {
		t.Fatal("degree before mutation")
	}
	g.MustAddEdge(0, 2, 1)
	if g.Degree(0) != 2 {
		t.Fatal("adjacency not rebuilt after AddEdge")
	}
}

func TestWeightedDegreeAndTotals(t *testing.T) {
	g := NewUndirected(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 5)
	if got := g.WeightedDegree(1); got != 7 {
		t.Fatalf("WeightedDegree(1)=%v", got)
	}
	if got := g.TotalEdgeWeight(); got != 7 {
		t.Fatalf("TotalEdgeWeight=%v", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewUndirected(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(4, 5, 1)
	ids, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count=%d", count)
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("component split: %v", ids)
	}
	if ids[3] == ids[0] || ids[4] != ids[5] || ids[4] == ids[3] {
		t.Fatalf("bad ids: %v", ids)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	if !g.IsConnected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestIsConnectedTrivial(t *testing.T) {
	if !NewUndirected(0).IsConnected() || !NewUndirected(1).IsConnected() {
		t.Fatal("trivial graphs must be connected")
	}
	if NewUndirected(2).IsConnected() {
		t.Fatal("two isolated vertices reported connected")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewUndirected(3)
	g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone aliases original: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := NewUndirected(3)
	g.MustAddEdge(0, 1, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.edges = append(g.edges, Edge{U: 0, V: 0, Weight: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("self-loop not caught")
	}
	g.edges = g.edges[:1]
	g.edges = append(g.edges, Edge{U: 1, V: 0, Weight: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate edge not caught")
	}
}

func TestTIGBasics(t *testing.T) {
	tig := NewTIGWithWeights([]float64{1, 2, 3})
	tig.MustAddEdge(0, 1, 10)
	tig.MustAddEdge(1, 2, 20)
	if tig.NumTasks() != 3 {
		t.Fatalf("NumTasks=%d", tig.NumTasks())
	}
	if got := tig.TotalWork(); got != 6 {
		t.Fatalf("TotalWork=%v", got)
	}
	if got := tig.TotalCommunication(); got != 30 {
		t.Fatalf("TotalCommunication=%v", got)
	}
	if got := tig.CommToCompRatio(); got != 5 {
		t.Fatalf("CommToCompRatio=%v", got)
	}
	if err := tig.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTIGValidateCatchesBadWeights(t *testing.T) {
	tig := NewTIGWithWeights([]float64{1, -2})
	if err := tig.Validate(); err == nil {
		t.Fatal("negative task weight accepted")
	}
	tig2 := NewTIG(2)
	tig2.Weights = tig2.Weights[:1]
	if err := tig2.Validate(); err == nil {
		t.Fatal("weight/vertex count mismatch accepted")
	}
}

func TestTIGClone(t *testing.T) {
	tig := NewTIGWithWeights([]float64{1, 2})
	tig.MustAddEdge(0, 1, 5)
	c := tig.Clone()
	c.Weights[0] = 99
	if tig.Weights[0] != 1 {
		t.Fatal("clone aliases weights")
	}
}

func TestResourceGraphLinks(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 2, 3})
	r.MustAddLink(0, 1, 4)
	if got := r.LinkCost(0, 1); got != 4 {
		t.Fatalf("LinkCost(0,1)=%v", got)
	}
	if got := r.LinkCost(1, 0); got != 4 {
		t.Fatalf("LinkCost(1,0)=%v", got)
	}
	if got := r.LinkCost(1, 1); got != 0 {
		t.Fatalf("diagonal LinkCost=%v", got)
	}
	if !math.IsInf(r.LinkCost(0, 2), 1) {
		t.Fatal("missing link should be +Inf before CloseLinks")
	}
	if r.FullyLinked() {
		t.Fatal("sparse platform reported fully linked")
	}
}

func TestCloseLinksRoutesCheapestPath(t *testing.T) {
	// Path 0-1-2 with costs 4 and 5 plus an expensive direct 0-2 link.
	r := NewResourceGraphWithCosts([]float64{1, 1, 1})
	r.MustAddLink(0, 1, 4)
	r.MustAddLink(1, 2, 5)
	r.MustAddLink(0, 2, 100)
	if err := r.CloseLinks(); err != nil {
		t.Fatal(err)
	}
	if got := r.LinkCost(0, 2); got != 9 {
		t.Fatalf("routed cost 0->2 = %v, want 9 via resource 1", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseLinksDisconnected(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 1, 1})
	r.MustAddLink(0, 1, 1)
	if err := r.CloseLinks(); err == nil {
		t.Fatal("disconnected platform closed without error")
	}
}

func TestResourceValidateCatchesAsymmetry(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 1})
	r.MustAddLink(0, 1, 3)
	r.links.Block[0*2+1] = 5 // corrupt one direction
	if err := r.Validate(); err == nil {
		t.Fatal("asymmetric link matrix accepted")
	}
}

func TestResourceClone(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 2})
	r.MustAddLink(0, 1, 3)
	c := r.Clone()
	c.Costs[0] = 50
	c.links.Block[1] = 99
	if r.Costs[0] != 1 || r.LinkCost(0, 1) != 3 {
		t.Fatal("clone aliases platform state")
	}
}

func TestCloseLinksPropertyTriangleInequality(t *testing.T) {
	rng := xrand.New(123)
	f := func(seed uint64) bool {
		n := 4 + int(seed%6)
		r := NewResourceGraph(n)
		local := xrand.New(seed)
		// Random connected topology: random spanning path + extra edges.
		perm := local.Perm(n)
		for i := 1; i < n; i++ {
			r.MustAddLink(perm[i-1], perm[i], local.Float64Range(1, 10))
		}
		for k := 0; k < n; k++ {
			u, v := local.Intn(n), local.Intn(n)
			if u != v && !r.HasEdge(u, v) {
				r.MustAddLink(u, v, local.Float64Range(1, 10))
			}
		}
		if err := r.CloseLinks(); err != nil {
			return false
		}
		// Closed costs must satisfy the triangle inequality.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if r.LinkCost(a, b) > r.LinkCost(a, c)+r.LinkCost(c, b)+1e-9 {
						return false
					}
				}
			}
		}
		return r.Validate() == nil
	}
	if err := quick.Check(func(s uint64) bool { return f(rng.Uint64() ^ s) }, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockPlatform: a block platform charges the diagonal entry between
// two resources of one block, the off-diagonal entry across blocks and 0
// from a resource to itself; it is fully linked, takes no links, is left
// as it is by CloseLinks, and clones deeply.
func TestBlockPlatform(t *testing.T) {
	r, err := NewResourceGraphBlocks([]float64{1, 2, 3}, []int32{0, 0, 1}, []float64{5, 9, 9, 7})
	if err != nil {
		t.Fatal(err)
	}
	want := [3][3]float64{{0, 5, 9}, {5, 0, 9}, {9, 9, 0}}
	for s := 0; s < 3; s++ {
		for b := 0; b < 3; b++ {
			if got := r.LinkCost(s, b); got != want[s][b] {
				t.Fatalf("LinkCost(%d,%d) = %v, want %v", s, b, got, want[s][b])
			}
		}
	}
	if !r.IsBlock() || !r.FullyLinked() {
		t.Fatal("block platform not reported as a fully linked block platform")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.AddLink(0, 2, 1); err == nil {
		t.Fatal("AddLink on a block platform succeeded")
	}
	if err := r.CloseLinks(); err != nil || r.LinkCost(0, 2) != 9 {
		t.Fatalf("CloseLinks: %v, LinkCost(0,2) = %v", err, r.LinkCost(0, 2))
	}
	c := r.Clone()
	c.links.Labels[2] = 0
	c.links.Block[1] = 1
	if r.LinkCost(0, 2) != 9 || c.LinkCost(0, 2) != 5 {
		t.Fatal("clone aliases the link table")
	}
	for _, bad := range []struct {
		labels []int32
		block  []float64
	}{
		{[]int32{0, 0}, []float64{5, 9, 9, 7}},                        // label count
		{[]int32{0, 0, 2}, []float64{5, 9, 9, 7}},                     // label out of range
		{[]int32{0, 0, -1}, []float64{5, 9, 9, 7}},                    // negative label
		{[]int32{0, 0, 0}, []float64{5, 9, 9}},                        // table not k*k
		{[]int32{0, 0, 1}, []float64{5, 9, 8, 7}},                     // asymmetric
		{[]int32{0, 0, 1}, []float64{-5, 9, 9, 7}},                    // negative
		{[]int32{0, 0, 1}, []float64{5, math.Inf(1), math.Inf(1), 7}}, // infinite
	} {
		if _, err := NewResourceGraphBlocks([]float64{1, 2, 3}, bad.labels, bad.block); err == nil {
			t.Errorf("labels %v, table %v accepted", bad.labels, bad.block)
		}
	}
}

// TestValidateMatchesMapCheck: on hand-made and random edge lists with
// duplicates (either orientation, repeated more than once), self-loops,
// out-of-range endpoints and negative weights in any order, Validate
// returns the map check's error exactly (firstInvalidEdge, the map loop
// Validate ran on every graph before it listed neighbour ids), and nil on
// valid lists.
func TestValidateMatchesMapCheck(t *testing.T) {
	cases := []struct {
		n     int
		edges []Edge
		want  string
	}{
		{3, []Edge{{0, 2, 1}, {2, 0, 1}}, "graph: duplicate edge (2,0)"},
		{3, []Edge{{2, 1, 1}, {0, 1, 1}, {1, 2, 1}}, "graph: duplicate edge (1,2)"},
		{4, []Edge{{3, 1, 1}, {0, 1, 1}, {1, 3, 1}, {0, 5, 1}}, "graph: duplicate edge (1,3)"},
		{4, []Edge{{3, 1, 1}, {0, 5, 1}, {1, 3, 1}}, "graph: edge (0,5) out of range [0,4)"},
		{4, []Edge{{0, 1, 1}, {2, 2, 1}, {1, 0, 1}}, "graph: self-loop at vertex 2"},
		{4, []Edge{{0, 1, 1}, {1, 0, 1}, {2, 3, -1}}, "graph: duplicate edge (1,0)"},
		{4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}, ""},
	}
	for i, c := range cases {
		g := NewUndirected(c.n)
		g.edges = c.edges
		got, ref := g.Validate(), g.firstInvalidEdge()
		if fmt.Sprint(got) != fmt.Sprint(ref) || (c.want == "") != (got == nil) || (got != nil && got.Error() != c.want) {
			t.Fatalf("case %d: Validate %v, map check %v, want %q", i, got, ref, c.want)
		}
	}
	rng := xrand.New(41)
	for trial := 0; trial < 2000; trial++ {
		n := rng.IntRange(1, 12)
		g := NewUndirected(n)
		for m := rng.Intn(30); m > 0; m-- {
			e := Edge{U: rng.Intn(n), V: rng.Intn(n), Weight: float64(rng.Intn(5))}
			switch rng.Intn(40) {
			case 0:
				e.V = n + rng.Intn(3)
			case 1:
				e.U = -1
			case 2:
				e.Weight = -1
			}
			if e.U == e.V && rng.Intn(4) > 0 {
				continue // keep self-loops rare so later errors are reached
			}
			g.edges = append(g.edges, e)
		}
		if got, ref := g.Validate(), g.firstInvalidEdge(); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("trial %d (n=%d, edges %v): Validate %v, map check %v", trial, n, g.edges, got, ref)
		}
	}
}

// TestAdoptEdgesMatchesAddEdge: adoptEdges, which the instance reader
// and ContractTIG use, must accept exactly the lists that adding every
// edge in order with AddEdge accepts, fail with AddEdge's first error,
// and store the same canonical edges. A duplicate that slipped through
// would leave a parallel edge in the graph. Lists both under and over
// scanEdges are tried, since AddEdge finds repeats differently there.
func TestAdoptEdgesMatchesAddEdge(t *testing.T) {
	check := func(name string, n int, edges []Edge) {
		t.Helper()
		ref := NewUndirected(n)
		var want error
		for _, e := range edges {
			if want = ref.AddEdge(e.U, e.V, e.Weight); want != nil {
				break
			}
		}
		g := NewUndirected(n)
		got := g.adoptEdges(append([]Edge(nil), edges...))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: adoptEdges error %v, AddEdge error %v", name, got, want)
		}
		if got == nil && fmt.Sprint(g.Edges()) != fmt.Sprint(ref.Edges()) {
			t.Fatalf("%s: adopted edges differ from the added ones", name)
		}
	}
	check("repeat", 3, []Edge{{0, 2, 1}, {2, 0, 1}})
	check("repeat before a range fault", 4, []Edge{{3, 1, 1}, {1, 3, 1}, {0, 5, 1}})
	check("range fault before a repeat", 4, []Edge{{3, 1, 1}, {0, 5, 1}, {1, 3, 1}})
	check("negative repeat", 4, []Edge{{0, 1, 1}, {1, 0, -1}})
	check("valid", 4, []Edge{{1, 0, 1}, {1, 2, 1}, {3, 2, 1}})

	// A list past scanEdges: every pair of a 60-vertex clique, in random
	// orientation, then with one pair repeated at a random position.
	rng := xrand.New(43)
	const n = 60
	var clique []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			e := Edge{U: u, V: v, Weight: float64(rng.Intn(9))}
			if rng.Intn(2) == 0 {
				e.U, e.V = v, u
			}
			clique = append(clique, e)
		}
	}
	if len(clique) < scanEdges {
		t.Fatalf("test premise broken: %d edges, want at least %d", len(clique), scanEdges)
	}
	check("large valid", n, clique)
	for trial := 0; trial < 20; trial++ {
		edges := append([]Edge(nil), clique...)
		i, j := rng.Intn(len(edges)), rng.Intn(len(edges))
		dup := Edge{U: edges[i].V, V: edges[i].U, Weight: 1}
		edges = append(edges[:j], append([]Edge{dup}, edges[j:]...)...)
		if trial%4 == 0 {
			edges[rng.Intn(len(edges))].Weight = -1
		}
		check(fmt.Sprintf("large trial %d", trial), n, edges)
	}
}
