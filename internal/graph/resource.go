package graph

import (
	"fmt"
	"math"
)

// ResourceGraph models the heterogeneous platform of Section 2: resource
// (vertex) s carries the processing weight w_s — the cost per unit of
// computation on that resource — and the pair (s, b) carries the link
// weight c_{s,b} — the cost per unit of communication between resources s
// and b.
//
// The cost model of eqs. (1)-(2) charges communication between *any* pair
// of resources that host interacting tasks, so the evaluator needs c_{s,b}
// for arbitrary pairs. ResourceGraph therefore stores every pair's cost in
// a LinkTable alongside the sparse topology: a block label per resource
// and a k x k table of block-pair costs. A dense platform is the identity
// labelling (k = n, the table is the n x n matrix); a hierarchical one
// (NewResourceGraphBlocks) labels each resource with its cluster, so its
// costs take O(n + k^2) memory instead of O(n^2). For dense topologies
// that are not complete graphs, CloseLinks replaces each missing pair's
// cost with the cheapest-path cost through the topology (messages are
// routed), which keeps sparse platform models usable under the same
// evaluator.
type ResourceGraph struct {
	*Undirected
	// Costs[s] is w_s, the processing cost per unit of computation.
	Costs []float64
	// links holds c_{s,b}. On a dense platform entries for unconnected
	// pairs are +Inf until CloseLinks is called.
	links LinkTable
	// Name labels the instance in experiment artefacts.
	Name string
}

// LinkTable is a platform's link costs in block form: resource s belongs
// to block Labels[s], and two distinct resources of blocks a and b
// communicate at Block[a*K+b]. A nil Labels is the identity labelling of
// a dense platform, whose Block is the n x n matrix with a zero diagonal.
// On a block platform the diagonal Block[a*K+a] is the cost between two
// distinct resources of block a; a resource's cost to itself is 0 under
// either form.
type LinkTable struct {
	Labels []int32
	K      int
	Block  []float64
}

// Cost returns c_{s,b}, inlined by every scorer; only the evaluator's
// dense edge sweep indexes a dense Block directly. It is 0 when s == b on
// both forms: the branch-free edge sweep charges co-located edges through
// it and relies on that zero.
func (t *LinkTable) Cost(s, b int) float64 {
	if t.Labels == nil {
		return t.Block[s*t.K+b]
	}
	if s == b {
		return 0
	}
	return t.Block[int(t.Labels[s])*t.K+int(t.Labels[b])]
}

// NewResourceGraph returns a platform on n resources with all processing
// costs zero and no links.
func NewResourceGraph(n int) *ResourceGraph {
	return newResourceGraph(make([]float64, n))
}

// newResourceGraph returns a platform with no links that takes ownership
// of costs.
func newResourceGraph(costs []float64) *ResourceGraph {
	n := len(costs)
	r := denseGraph(costs, make([]float64, n*n))
	for i := range r.links.Block {
		r.links.Block[i] = math.Inf(1)
	}
	for s := 0; s < n; s++ {
		r.links.Block[s*n+s] = 0
	}
	return r
}

// denseGraph returns a platform with no topology that takes ownership of
// costs and of link as its link matrix.
func denseGraph(costs, link []float64) *ResourceGraph {
	n := len(costs)
	return &ResourceGraph{Undirected: NewUndirected(n), Costs: costs, links: LinkTable{K: n, Block: link}}
}

// blockGraph returns a platform with no topology that takes ownership of
// costs, labels and block as its link table.
func blockGraph(costs []float64, labels []int32, block []float64) *ResourceGraph {
	return &ResourceGraph{
		Undirected: NewUndirected(len(costs)),
		Costs:      costs,
		links:      LinkTable{Labels: labels, K: blockCount(len(block)), Block: block},
	}
}

// NewResourceGraphWithCosts returns a platform whose processing costs are
// a copy of the given slice.
func NewResourceGraphWithCosts(costs []float64) *ResourceGraph {
	r := NewResourceGraph(len(costs))
	copy(r.Costs, costs)
	return r
}

// NewResourceGraphDense builds a platform directly from a dense symmetric
// link-cost matrix (row-major n x n, zero diagonal, finite non-negative
// entries), bypassing per-edge topology construction — the constructor for
// coarsened platforms, whose link structure is complete and would cost
// O(n^2) AddLink calls (or an O(n^3) CloseLinks) to express through the
// topology. The topology graph is left empty, which the cost model never
// observes: it reads only the closed link matrix. Both slices are copied.
func NewResourceGraphDense(costs, link []float64) (*ResourceGraph, error) {
	if err := checkDense(costs, link); err != nil {
		return nil, err
	}
	return denseGraph(append(make([]float64, 0, len(costs)), costs...), append(make([]float64, 0, len(link)), link...)), nil
}

// NewResourceGraphBlocks builds a block platform: resource s belongs to
// block labels[s] in [0, k), and two distinct resources of blocks a and b
// communicate at block[a*k+b], where len(block) = k*k and the table is
// symmetric with finite non-negative entries. Its diagonal block[a*k+a] is
// the cost between two resources of block a; a resource's cost to itself
// is 0. This is the constructor for hierarchical platforms: costs take
// O(n + k^2) memory, and the topology graph is left empty as in
// NewResourceGraphDense. The platform has no topology to add links to
// (AddLink fails) and is already closed (CloseLinks does nothing). All
// three slices are copied.
func NewResourceGraphBlocks(costs []float64, labels []int32, block []float64) (*ResourceGraph, error) {
	if err := checkBlocks(costs, labels, block); err != nil {
		return nil, err
	}
	return blockGraph(append(make([]float64, 0, len(costs)), costs...),
		append(make([]int32, 0, len(labels)), labels...),
		append(make([]float64, 0, len(block)), block...)), nil
}

// blockCount returns k such that k*k = size, or -1 if size is not a
// perfect square. The square root is exact for every size below 2^52.
func blockCount(size int) int {
	k := int(math.Sqrt(float64(size)))
	if k*k != size {
		return -1
	}
	return k
}

// checkCosts checks that every processing cost is finite and non-negative.
func checkCosts(costs []float64) error {
	for s, w := range costs {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("graph: resource %d has invalid cost %v", s, w)
		}
	}
	return nil
}

// checkDense checks NewResourceGraphDense's arguments.
func checkDense(costs, link []float64) error {
	n := len(costs)
	if len(link) != n*n {
		return fmt.Errorf("graph: dense link matrix has %d entries for %d resources", len(link), n)
	}
	if err := checkCosts(costs); err != nil {
		return err
	}
	for s := 0; s < n; s++ {
		if link[s*n+s] != 0 {
			return fmt.Errorf("graph: link matrix diagonal (%d,%d) = %v, want 0", s, s, link[s*n+s])
		}
	}
	return checkSymmetric(link, n, "link matrix")
}

// checkBlocks checks NewResourceGraphBlocks's arguments in O(n + k^2).
func checkBlocks(costs []float64, labels []int32, block []float64) error {
	n := len(costs)
	if len(labels) != n {
		return fmt.Errorf("graph: block platform has %d labels for %d resources", len(labels), n)
	}
	k := blockCount(len(block))
	if k < 0 {
		return fmt.Errorf("graph: block link table has %d entries, not k*k for any k", len(block))
	}
	if err := checkCosts(costs); err != nil {
		return err
	}
	for s, a := range labels {
		if a < 0 || int(a) >= k {
			return fmt.Errorf("graph: resource %d has block label %d outside [0,%d)", s, a, k)
		}
	}
	return checkSymmetric(block, k, "block link table")
}

// checkSymmetric checks that the k x k table is symmetric with finite
// non-negative entries.
func checkSymmetric(table []float64, k int, what string) error {
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := table[a*k+b]
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("graph: %s entry (%d,%d) has invalid cost %v", what, a, b, v)
			}
			if table[b*k+a] != v {
				return fmt.Errorf("graph: %s asymmetric at (%d,%d): %v vs %v", what, a, b, v, table[b*k+a])
			}
		}
	}
	return nil
}

// NumResources returns |Vr|.
func (r *ResourceGraph) NumResources() int { return r.N() }

// IsBlock reports whether the platform carries block labels, i.e. was
// built by NewResourceGraphBlocks or decoded from a block document.
func (r *ResourceGraph) IsBlock() bool { return r.links.Labels != nil }

// AddLink inserts an undirected communication link between resources s and
// b with cost-per-unit weight, updating both the topology and the dense
// matrix. A block platform has no topology to extend, so it fails there.
func (r *ResourceGraph) AddLink(s, b int, weight float64) error {
	if r.IsBlock() {
		return fmt.Errorf("graph: block platform %q takes no links", r.Name)
	}
	if err := r.AddEdge(s, b, weight); err != nil {
		return err
	}
	n := r.N()
	r.links.Block[s*n+b] = weight
	r.links.Block[b*n+s] = weight
	return nil
}

// MustAddLink is AddLink that panics on error.
func (r *ResourceGraph) MustAddLink(s, b int, weight float64) {
	if err := r.AddLink(s, b, weight); err != nil {
		panic(err)
	}
}

// LinkCost returns c_{s,b}. The diagonal is zero (intra-resource
// communication is free in the paper's model); on a dense platform
// unconnected pairs are +Inf unless CloseLinks has been called.
func (r *ResourceGraph) LinkCost(s, b int) float64 {
	n := r.N()
	if s < 0 || s >= n || b < 0 || b >= n {
		panic(fmt.Sprintf("graph: LinkCost(%d,%d) out of range [0,%d)", s, b, n))
	}
	return r.links.Cost(s, b)
}

// Dense returns the platform with its link costs as an n x n matrix: r
// itself when it is dense, and otherwise its dense expansion, a new
// platform with a copy of r's processing costs, r's name, LinkCost(s, b)
// for every pair and no topology. The expansion takes n^2 floats, so it
// is meant for small platforms whose scorers run long enough for the
// dense edge sweep to pay off, such as a multilevel solve's coarsest
// level.
func (r *ResourceGraph) Dense() *ResourceGraph {
	if !r.IsBlock() {
		return r
	}
	n := r.N()
	t := r.links
	link := make([]float64, n*n)
	for s := 0; s < n; s++ {
		row := link[s*n : (s+1)*n]
		block := t.Block[int(t.Labels[s])*t.K : (int(t.Labels[s])+1)*t.K]
		for b, lb := range t.Labels {
			if b != s {
				row[b] = block[lb]
			}
		}
	}
	out := denseGraph(append([]float64(nil), r.Costs...), link)
	out.Name = r.Name
	return out
}

// LinkTable exposes the platform's link costs. The cost evaluator looks
// them up through LinkTable.Cost in its inner loop. Callers must not
// mutate the table.
func (r *ResourceGraph) LinkTable() LinkTable { return r.links }

// FullyLinked reports whether every off-diagonal pair has a finite link
// cost, i.e. the evaluator can charge any mapping without routing. On a
// block platform it checks the k x k table, in O(k^2).
func (r *ResourceGraph) FullyLinked() bool {
	if r.IsBlock() {
		for _, v := range r.links.Block {
			if math.IsInf(v, 1) {
				return false
			}
		}
		return true
	}
	n := r.N()
	link := r.links.Block
	for s := 0; s < n; s++ {
		for b := 0; b < n; b++ {
			if s != b && math.IsInf(link[s*n+b], 1) {
				return false
			}
		}
	}
	return true
}

// CloseLinks replaces every pair's link cost with the cheapest-path cost
// through the topology (Floyd-Warshall all-pairs shortest paths over the
// current link matrix). This models store-and-forward routing across a
// sparse platform: two resources without a direct link communicate at the
// cost of the cheapest route between them. Returns an error if the
// topology is disconnected, since then some pairs can never communicate
// and no bijective mapping has finite cost. A block platform is closed
// already, and CloseLinks leaves it as it is.
func (r *ResourceGraph) CloseLinks() error {
	if r.IsBlock() {
		return nil
	}
	n := r.N()
	link := r.links.Block
	// Floyd-Warshall; n is the platform size (tens), so O(n^3) is trivial.
	for k := 0; k < n; k++ {
		for s := 0; s < n; s++ {
			sk := link[s*n+k]
			if math.IsInf(sk, 1) {
				continue
			}
			row := link[s*n : s*n+n]
			krow := link[k*n : k*n+n]
			for b := 0; b < n; b++ {
				if via := sk + krow[b]; via < row[b] {
					row[b] = via
				}
			}
		}
	}
	if !r.FullyLinked() {
		return fmt.Errorf("graph: resource topology %q is disconnected; links cannot be closed", r.Name)
	}
	return nil
}

// Validate extends the structural check with platform-specific
// invariants: cost slice length, non-negative processing costs, and a
// well-formed link table. A dense platform's matrix must be symmetric
// with a zero diagonal and non-negative entries (+Inf for pairs not yet
// closed); a block platform must pass NewResourceGraphBlocks's checks,
// in O(n + k^2).
func (r *ResourceGraph) Validate() error {
	if err := r.Undirected.Validate(); err != nil {
		return err
	}
	n := r.N()
	if len(r.Costs) != n {
		return fmt.Errorf("graph: resource graph has %d costs for %d resources", len(r.Costs), n)
	}
	for i, w := range r.Costs {
		if w < 0 {
			return fmt.Errorf("graph: resource %d has negative processing cost %v", i, w)
		}
	}
	if r.IsBlock() {
		return checkBlocks(r.Costs, r.links.Labels, r.links.Block)
	}
	link := r.links.Block
	if r.links.K != n || len(link) != n*n {
		return fmt.Errorf("graph: link matrix has %d entries for %d resources", len(link), n)
	}
	for s := 0; s < n; s++ {
		if link[s*n+s] != 0 {
			return fmt.Errorf("graph: non-zero self link cost at resource %d", s)
		}
		for b := s + 1; b < n; b++ {
			if link[s*n+b] != link[b*n+s] {
				return fmt.Errorf("graph: asymmetric link costs between %d and %d", s, b)
			}
			if link[s*n+b] < 0 {
				return fmt.Errorf("graph: negative link cost between %d and %d", s, b)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the platform.
func (r *ResourceGraph) Clone() *ResourceGraph {
	links := r.links
	if links.Labels != nil {
		links.Labels = append([]int32(nil), links.Labels...)
	}
	links.Block = append([]float64(nil), links.Block...)
	return &ResourceGraph{
		Undirected: r.Undirected.Clone(),
		Costs:      append([]float64(nil), r.Costs...),
		links:      links,
		Name:       r.Name,
	}
}
