package gen

import (
	"fmt"

	"matchsim/internal/graph"
	"matchsim/internal/xrand"
)

// HeterogeneityProfile controls how processing costs are drawn for the
// topology constructors below.
type HeterogeneityProfile struct {
	// CostLo/CostHi bound uniform processing costs.
	CostLo, CostHi float64
	// Clustered, when true, assigns one cost per cluster instead of per
	// node — modelling homogeneous sites in a heterogeneous federation.
	Clustered bool
}

// DefaultProfile matches the paper's resource weight range [1, 5].
func DefaultProfile() HeterogeneityProfile {
	return HeterogeneityProfile{CostLo: 1, CostHi: 5}
}

func drawCosts(rng *xrand.RNG, n int, p HeterogeneityProfile) []float64 {
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = p.CostLo + float64((p.CostHi-p.CostLo)*rng.Float64())
	}
	return costs
}

// RingPlatform builds an n-resource ring with uniform link costs in
// [linkLo, linkHi] and shortest-path-closed pairwise costs.
func RingPlatform(rng *xrand.RNG, n int, linkLo, linkHi float64, prof HeterogeneityProfile) (*graph.ResourceGraph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: ring needs n >= 3, got %d", n)
	}
	r := graph.NewResourceGraphWithCosts(drawCosts(rng, n, prof))
	r.Name = fmt.Sprintf("ring-%d", n)
	for i := 0; i < n; i++ {
		r.MustAddLink(i, (i+1)%n, rng.Float64Range(linkLo, linkHi))
	}
	if err := r.CloseLinks(); err != nil {
		return nil, err
	}
	return r, nil
}

// StarPlatform builds a hub-and-spoke platform: resource 0 is the hub.
// Models a cluster with a head node or a grid with a central exchange.
func StarPlatform(rng *xrand.RNG, n int, linkLo, linkHi float64, prof HeterogeneityProfile) (*graph.ResourceGraph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: star needs n >= 2, got %d", n)
	}
	r := graph.NewResourceGraphWithCosts(drawCosts(rng, n, prof))
	r.Name = fmt.Sprintf("star-%d", n)
	for i := 1; i < n; i++ {
		r.MustAddLink(0, i, rng.Float64Range(linkLo, linkHi))
	}
	if err := r.CloseLinks(); err != nil {
		return nil, err
	}
	return r, nil
}

// CliquePlatform builds a complete platform: every pair has a direct link.
// This is the most faithful model of the paper's evaluator, which charges
// c_{s,b} between arbitrary pairs.
func CliquePlatform(rng *xrand.RNG, n int, linkLo, linkHi float64, prof HeterogeneityProfile) (*graph.ResourceGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: clique needs n >= 1, got %d", n)
	}
	r := graph.NewResourceGraphWithCosts(drawCosts(rng, n, prof))
	r.Name = fmt.Sprintf("clique-%d", n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			r.MustAddLink(u, v, rng.Float64Range(linkLo, linkHi))
		}
	}
	return r, nil
}

// MeshPlatform builds a rows x cols 2-D mesh (no wraparound) — the classic
// HPC interconnect abstraction.
func MeshPlatform(rng *xrand.RNG, rows, cols int, linkLo, linkHi float64, prof HeterogeneityProfile) (*graph.ResourceGraph, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("gen: mesh %dx%d too small", rows, cols)
	}
	n := rows * cols
	r := graph.NewResourceGraphWithCosts(drawCosts(rng, n, prof))
	r.Name = fmt.Sprintf("mesh-%dx%d", rows, cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				r.MustAddLink(id(i, j), id(i, j+1), rng.Float64Range(linkLo, linkHi))
			}
			if i+1 < rows {
				r.MustAddLink(id(i, j), id(i+1, j), rng.Float64Range(linkLo, linkHi))
			}
		}
	}
	if err := r.CloseLinks(); err != nil {
		return nil, err
	}
	return r, nil
}

// TorusPlatform builds a rows x cols 2-D torus (mesh with wraparound).
func TorusPlatform(rng *xrand.RNG, rows, cols int, linkLo, linkHi float64, prof HeterogeneityProfile) (*graph.ResourceGraph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("gen: torus needs rows,cols >= 3, got %dx%d", rows, cols)
	}
	n := rows * cols
	r := graph.NewResourceGraphWithCosts(drawCosts(rng, n, prof))
	r.Name = fmt.Sprintf("torus-%dx%d", rows, cols)
	id := func(i, j int) int { return (i%rows)*cols + (j % cols) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			r.MustAddLink(id(i, j), id(i, j+1), rng.Float64Range(linkLo, linkHi))
			r.MustAddLink(id(i, j), id(i+1, j), rng.Float64Range(linkLo, linkHi))
		}
	}
	if err := r.CloseLinks(); err != nil {
		return nil, err
	}
	return r, nil
}

// ClusteredPlatform builds the computational-grid shape the paper's
// introduction motivates: `clusters` sites of `perCluster` resources each.
// Intra-cluster links are cheap (drawn from [intraLo, intraHi]); each pair
// of clusters is joined by one expensive wide-area link drawn from
// [interLo, interHi]. With prof.Clustered, every resource in a site shares
// one processing cost — homogeneous machines inside each site.
func ClusteredPlatform(rng *xrand.RNG, clusters, perCluster int, intraLo, intraHi, interLo, interHi float64, prof HeterogeneityProfile) (*graph.ResourceGraph, error) {
	if clusters < 1 || perCluster < 1 {
		return nil, fmt.Errorf("gen: clustered platform %dx%d too small", clusters, perCluster)
	}
	n := clusters * perCluster
	var costs []float64
	if prof.Clustered {
		costs = make([]float64, n)
		for c := 0; c < clusters; c++ {
			cost := prof.CostLo + float64((prof.CostHi-prof.CostLo)*rng.Float64())
			for k := 0; k < perCluster; k++ {
				costs[c*perCluster+k] = cost
			}
		}
	} else {
		costs = drawCosts(rng, n, prof)
	}
	r := graph.NewResourceGraphWithCosts(costs)
	r.Name = fmt.Sprintf("clustered-%dx%d", clusters, perCluster)
	// Complete graph inside each cluster.
	for c := 0; c < clusters; c++ {
		base := c * perCluster
		for u := 0; u < perCluster; u++ {
			for v := u + 1; v < perCluster; v++ {
				r.MustAddLink(base+u, base+v, rng.Float64Range(intraLo, intraHi))
			}
		}
	}
	// One gateway link between each pair of clusters (via member 0).
	for a := 0; a < clusters; a++ {
		for b := a + 1; b < clusters; b++ {
			r.MustAddLink(a*perCluster, b*perCluster, rng.Float64Range(interLo, interHi))
		}
	}
	if err := r.CloseLinks(); err != nil {
		return nil, err
	}
	return r, nil
}

// GeometricTIG builds a random geometric TIG: n points uniform in the unit
// square, edges between pairs closer than radius, communication weight
// inversely proportional to distance (closer grids overlap more). Task
// weights are uniform in [wLo, wHi]. The result mimics spatially embedded
// overset grids more closely than Erdos-Renyi placement. Falls back to a
// spanning tree over near-neighbours if the radius leaves the graph
// disconnected.
func GeometricTIG(rng *xrand.RNG, n int, radius, wLo, wHi float64) (*graph.TIG, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: geometric TIG size %d < 1", n)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("gen: geometric radius %v <= 0", radius)
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
	}
	t := graph.NewTIG(n)
	t.Name = fmt.Sprintf("geom-tig-%d", n)
	for i := 0; i < n; i++ {
		t.Weights[i] = rng.Float64Range(wLo, wHi)
	}
	dist := func(a, b pt) float64 {
		dx, dy := a.x-b.x, a.y-b.y
		return float64(dx*dx) + float64(dy*dy)
	}
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if d2 := dist(pts[u], pts[v]); d2 < r2 {
				// Overlap grows as the grids get closer.
				w := 1 + float64(99*(1-d2/r2))
				t.MustAddEdge(u, v, w)
			}
		}
	}
	// Connect leftover components through their nearest external points.
	ids, count := t.ConnectedComponents()
	for count > 1 {
		best, bu, bv := -1.0, -1, -1
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if ids[u] == ids[v] || (best >= 0 && dist(pts[u], pts[v]) >= best) {
					continue
				}
				best, bu, bv = dist(pts[u], pts[v]), u, v
			}
		}
		t.MustAddEdge(bu, bv, 1)
		ids, count = t.ConnectedComponents()
	}
	return t, nil
}
