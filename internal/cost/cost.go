// Package cost implements the execution-time model of Section 2 of the
// paper — equations (1) and (2) — together with the mapping representation
// shared by every solver.
//
// For a mapping M assigning each task t to a resource M[t], the load on
// resource s is
//
//	Exec_s(M) = sum_{t: M[t]=s} W^t * w_s
//	          + sum_{t: M[t]=s} sum_{(t,a) in Et, M[a]=b != s} C^{t,a} * c_{s,b}
//
// and the application execution time is the makespan
//
//	Exec(M) = max_s Exec_s(M).
//
// Evaluator scores mappings from scratch (Exec / Loads) or incrementally
// (State), recomputing only the affected resources' loads: O(deg) per
// neighbourhood move instead of O(n + |Et|). It forms W^t * w_s where it
// is used instead of storing an n x r table, and rounds every product on
// its own (float64(...)), so no architecture fuses a multiply-add into a
// load and moves it off amd64's bits.
package cost

import (
	"fmt"
	"math"

	"matchsim/internal/graph"
)

// Mapping assigns each task index to a resource index: Mapping[t] = s.
// The paper restricts experiments to bijective mappings (|Vt| = |Vr|,
// each resource hosts exactly one task); the evaluator itself supports
// arbitrary many-to-one mappings, which the clustering examples use.
type Mapping []int

// Clone returns a copy of m.
func (m Mapping) Clone() Mapping {
	return append(Mapping(nil), m...)
}

// IsPermutation reports whether m is a bijection onto [0, n) where
// n = len(m).
func (m Mapping) IsPermutation() bool {
	seen := make([]bool, len(m))
	for _, s := range m {
		if s < 0 || s >= len(m) || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// Validate checks that every assignment lands inside [0, numResources).
func (m Mapping) Validate(numResources int) error {
	for t, s := range m {
		if s < 0 || s >= numResources {
			return fmt.Errorf("cost: task %d mapped to resource %d outside [0,%d)", t, s, numResources)
		}
	}
	return nil
}

// Identity returns the identity mapping of size n (task i on resource i).
func Identity(n int) Mapping {
	m := make(Mapping, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// Evaluator scores mappings of one TIG onto one platform. It is
// read-only after construction and safe for concurrent use; the CE
// engine shares one Evaluator across all worker goroutines.
type Evaluator struct {
	tig      *graph.TIG
	platform *graph.ResourceGraph
	n        int // tasks
	r        int // resources
	// weights (W^t) and costs (w_s) alias the TIG's and the platform's.
	weights, costs []float64
	// links is the platform's link table, aliased; every lookup goes
	// through links.Cost.
	links graph.LinkTable
	// edges is the TIG edge list packed to 16 bytes per edge (int32
	// endpoints beside the weight): Loads streams it once per draw, so
	// halving its footprint against graph.Edge's 24 bytes cuts the cache
	// traffic of the hottest loop in the solver.
	edges []packedEdge
}

// packedEdge is Evaluator's cache-dense copy of a TIG edge.
type packedEdge struct {
	u, v int32
	w    float64
}

// NewEvaluator builds an evaluator after validating both graphs and the
// requirement that the platform is fully linked (every resource pair has
// a finite communication cost).
func NewEvaluator(tig *graph.TIG, platform *graph.ResourceGraph) (*Evaluator, error) {
	if err := tig.Validate(); err != nil {
		return nil, fmt.Errorf("cost: invalid TIG: %w", err)
	}
	if err := platform.Validate(); err != nil {
		return nil, fmt.Errorf("cost: invalid platform: %w", err)
	}
	if !platform.FullyLinked() {
		return nil, fmt.Errorf("cost: platform %q is not fully linked; call CloseLinks first", platform.Name)
	}
	// CommTime and the incremental State walk adjacency lists, possibly
	// from concurrent workers; build the CSR arrays up front so those
	// calls never trigger the (single-threaded) lazy rebuild.
	tig.BuildAdjacency()
	n, r := tig.NumTasks(), platform.NumResources()
	e := &Evaluator{
		tig:      tig,
		platform: platform,
		n:        n,
		r:        r,
		weights:  tig.Weights,
		costs:    platform.Costs,
		links:    platform.LinkTable(),
	}
	e.edges = make([]packedEdge, 0, len(tig.Edges()))
	for _, edge := range tig.Edges() {
		e.edges = append(e.edges, packedEdge{u: int32(edge.U), v: int32(edge.V), w: edge.Weight})
	}
	return e, nil
}

// NumTasks returns |Vt|.
func (e *Evaluator) NumTasks() int { return e.n }

// NumResources returns |Vr|.
func (e *Evaluator) NumResources() int { return e.r }

// TIG returns the application graph the evaluator scores against.
func (e *Evaluator) TIG() *graph.TIG { return e.tig }

// Platform returns the resource graph the evaluator scores against.
func (e *Evaluator) Platform() *graph.ResourceGraph { return e.platform }

// ComputeTime returns Tcp[t][s] = W^t * w_s.
func (e *Evaluator) ComputeTime(t, s int) float64 { return float64(e.weights[t] * e.costs[s]) }

// CommTime returns Tcm[t] for task t under mapping m: the communication
// time charged to t's resource for t's edges whose far endpoint lives on
// a different resource.
func (e *Evaluator) CommTime(t int, m Mapping) float64 {
	s := m[t]
	total := 0.0
	for _, nb := range e.tig.Neighbors(t) {
		if b := m[nb.To]; b != s {
			total += float64(nb.Weight * e.links.Cost(s, b))
		}
	}
	return total
}

// Loads returns Exec_s for every resource under mapping m, writing into
// dst when it has capacity (dst may be nil). The per-edge communication
// cost is charged to both endpoints' resources, exactly as eq. (1) sums
// over the tasks assigned to each resource.
//
// The edge sweep is branch-free: a co-located edge multiplies by the zero
// that LinkTable.Cost gives for su == sv, so both of its adds are exact
// no-ops — the same sums as skipping it, without the data-dependent
// branch that mispredicts on randomly drawn mappings (the CE hot path
// scores every draw here).
func (e *Evaluator) Loads(m Mapping, dst []float64) []float64 {
	if cap(dst) < e.r {
		dst = make([]float64, e.r)
	}
	dst = dst[:e.r]
	for i := range dst {
		dst[i] = 0
	}
	costs := e.costs
	for t, w := range e.weights {
		s := m[t]
		dst[s] += float64(w * costs[s])
	}
	if e.links.Labels == nil {
		// A dense platform, the CE kernel's case: the matrix read
		// directly, its zero diagonal doing what Cost's su == sv test does.
		link, r := e.links.Block, e.r
		for _, edge := range e.edges {
			su, sv := m[edge.u], m[edge.v]
			c := float64(edge.w * link[su*r+sv])
			dst[su] += c
			dst[sv] += c
		}
		return dst
	}
	links := &e.links
	for _, edge := range e.edges {
		su, sv := m[edge.u], m[edge.v]
		c := float64(edge.w * links.Cost(su, sv))
		dst[su] += c
		dst[sv] += c
	}
	return dst
}

// Exec returns the application execution time Exec(M) = max_s Exec_s(M),
// eq. (2).
func (e *Evaluator) Exec(m Mapping) float64 {
	return e.ExecInto(m, nil)
}

// ExecInto is Exec with a caller-provided scratch buffer of length >=
// NumResources, letting hot loops avoid per-call allocation. Pass nil to
// allocate internally.
func (e *Evaluator) ExecInto(m Mapping, scratch []float64) float64 {
	loads := e.Loads(m, scratch)
	maxLoad := math.Inf(-1)
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return maxLoad
}

// Breakdown decomposes one mapping's cost for reporting: per-resource
// compute and communication components, the busiest resource, and the
// imbalance ratio (max load over mean load).
type Breakdown struct {
	Compute  []float64 // per-resource processing time
	Comm     []float64 // per-resource communication time
	Loads    []float64 // Compute[i] + Comm[i]
	Exec     float64   // max load (eq. 2)
	MeanLoad float64
	// Busiest is the arg max resource.
	Busiest int
	// Imbalance = Exec / MeanLoad; 1.0 is a perfectly balanced mapping.
	Imbalance float64
}

// Explain computes the full Breakdown for mapping m.
func (e *Evaluator) Explain(m Mapping) Breakdown {
	b := Breakdown{
		Compute: make([]float64, e.r),
		Comm:    make([]float64, e.r),
		Loads:   make([]float64, e.r),
	}
	for t := 0; t < e.n; t++ {
		s := m[t]
		b.Compute[s] += e.ComputeTime(t, s)
	}
	for _, edge := range e.tig.Edges() {
		su, sv := m[edge.U], m[edge.V]
		if su == sv {
			continue
		}
		c := float64(edge.Weight * e.links.Cost(su, sv))
		b.Comm[su] += c
		b.Comm[sv] += c
	}
	b.Exec = math.Inf(-1)
	total := 0.0
	for s := 0; s < e.r; s++ {
		b.Loads[s] = b.Compute[s] + b.Comm[s]
		total += b.Loads[s]
		if b.Loads[s] > b.Exec {
			b.Exec = b.Loads[s]
			b.Busiest = s
		}
	}
	if e.r > 0 {
		b.MeanLoad = total / float64(e.r)
	}
	if b.MeanLoad > 0 {
		b.Imbalance = b.Exec / b.MeanLoad
	}
	return b
}
