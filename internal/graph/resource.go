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
// for arbitrary pairs. ResourceGraph therefore stores a dense symmetric
// link-cost matrix alongside the sparse topology. For topologies that are
// not complete graphs, CloseLinks replaces each missing pair's cost with
// the cheapest-path cost through the topology (messages are routed), which
// keeps sparse platform models usable under the same evaluator.
type ResourceGraph struct {
	*Undirected
	// Costs[s] is w_s, the processing cost per unit of computation.
	Costs []float64
	// link[s*n+b] is c_{s,b}; symmetric with zero diagonal. Entries for
	// unconnected pairs are +Inf until CloseLinks is called.
	link []float64
	// Name labels the instance in experiment artefacts.
	Name string
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
	for i := range r.link {
		r.link[i] = math.Inf(1)
	}
	for s := 0; s < n; s++ {
		r.link[s*n+s] = 0
	}
	return r
}

// denseGraph returns a platform with no topology that takes ownership of
// costs and of link as its link matrix.
func denseGraph(costs, link []float64) *ResourceGraph {
	return &ResourceGraph{Undirected: NewUndirected(len(costs)), Costs: costs, link: link}
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
// generated large platforms and coarsened platforms, whose link structure
// is complete and would cost O(n^2) AddLink calls (or an O(n^3)
// CloseLinks) to express through the topology. The topology graph is left
// empty, which the cost model never observes: it reads only the closed
// link matrix. Both slices are copied.
func NewResourceGraphDense(costs, link []float64) (*ResourceGraph, error) {
	if err := checkDense(costs, link); err != nil {
		return nil, err
	}
	return denseGraph(append(make([]float64, 0, len(costs)), costs...), append(make([]float64, 0, len(link)), link...)), nil
}

// checkDense checks NewResourceGraphDense's arguments.
func checkDense(costs, link []float64) error {
	n := len(costs)
	if len(link) != n*n {
		return fmt.Errorf("graph: dense link matrix has %d entries for %d resources", len(link), n)
	}
	for s := 0; s < n; s++ {
		if costs[s] < 0 || math.IsNaN(costs[s]) || math.IsInf(costs[s], 0) {
			return fmt.Errorf("graph: resource %d has invalid cost %v", s, costs[s])
		}
		if link[s*n+s] != 0 {
			return fmt.Errorf("graph: link matrix diagonal (%d,%d) = %v, want 0", s, s, link[s*n+s])
		}
		for b := s + 1; b < n; b++ {
			v := link[s*n+b]
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("graph: link (%d,%d) has invalid cost %v", s, b, v)
			}
			if link[b*n+s] != v {
				return fmt.Errorf("graph: link matrix asymmetric at (%d,%d): %v vs %v", s, b, v, link[b*n+s])
			}
		}
	}
	return nil
}

// NumResources returns |Vr|.
func (r *ResourceGraph) NumResources() int { return r.N() }

// AddLink inserts an undirected communication link between resources s and
// b with cost-per-unit weight, updating both the topology and the dense
// matrix.
func (r *ResourceGraph) AddLink(s, b int, weight float64) error {
	if err := r.AddEdge(s, b, weight); err != nil {
		return err
	}
	n := r.N()
	r.link[s*n+b] = weight
	r.link[b*n+s] = weight
	return nil
}

// MustAddLink is AddLink that panics on error.
func (r *ResourceGraph) MustAddLink(s, b int, weight float64) {
	if err := r.AddLink(s, b, weight); err != nil {
		panic(err)
	}
}

// LinkCost returns c_{s,b}. The diagonal is zero (intra-resource
// communication is free in the paper's model); unconnected pairs are +Inf
// unless CloseLinks has been called.
func (r *ResourceGraph) LinkCost(s, b int) float64 {
	n := r.N()
	if s < 0 || s >= n || b < 0 || b >= n {
		panic(fmt.Sprintf("graph: LinkCost(%d,%d) out of range [0,%d)", s, b, n))
	}
	return r.link[s*n+b]
}

// LinkMatrix exposes the dense link-cost matrix in row-major order. The
// cost evaluator indexes it directly in its inner loop. Callers must not
// mutate it.
func (r *ResourceGraph) LinkMatrix() []float64 { return r.link }

// FullyLinked reports whether every off-diagonal pair has a finite link
// cost, i.e. the evaluator can charge any mapping without routing.
func (r *ResourceGraph) FullyLinked() bool {
	n := r.N()
	for s := 0; s < n; s++ {
		for b := 0; b < n; b++ {
			if s != b && math.IsInf(r.link[s*n+b], 1) {
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
// and no bijective mapping has finite cost.
func (r *ResourceGraph) CloseLinks() error {
	n := r.N()
	// Floyd-Warshall; n is the platform size (tens), so O(n^3) is trivial.
	for k := 0; k < n; k++ {
		for s := 0; s < n; s++ {
			sk := r.link[s*n+k]
			if math.IsInf(sk, 1) {
				continue
			}
			row := r.link[s*n : s*n+n]
			krow := r.link[k*n : k*n+n]
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
// invariants: cost slice length, non-negative processing costs, a
// symmetric link matrix with zero diagonal, and agreement between the
// sparse topology and the dense matrix on direct links.
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
	if len(r.link) != n*n {
		return fmt.Errorf("graph: link matrix has %d entries for %d resources", len(r.link), n)
	}
	for s := 0; s < n; s++ {
		if r.link[s*n+s] != 0 {
			return fmt.Errorf("graph: non-zero self link cost at resource %d", s)
		}
		for b := s + 1; b < n; b++ {
			if r.link[s*n+b] != r.link[b*n+s] {
				return fmt.Errorf("graph: asymmetric link costs between %d and %d", s, b)
			}
			if r.link[s*n+b] < 0 {
				return fmt.Errorf("graph: negative link cost between %d and %d", s, b)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the platform.
func (r *ResourceGraph) Clone() *ResourceGraph {
	c := &ResourceGraph{
		Undirected: r.Undirected.Clone(),
		Costs:      append([]float64(nil), r.Costs...),
		link:       append([]float64(nil), r.link...),
		Name:       r.Name,
	}
	return c
}
