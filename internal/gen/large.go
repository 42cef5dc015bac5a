// Large-instance generators: the Section 5.2 generators scale only to a
// few hundred vertices — PaperTIG's duplicate check walks the edge list
// (O(M^2) total) and PaperPlatform closes its sparse topology with
// Floyd-Warshall (O(n^3)). The constructors here keep the paper's weight
// ranges but build sparse bounded-degree TIGs with an O(M) duplicate
// check and hierarchical cluster platforms (cf. the hierarchical platform
// models of Glantz et al.) stored as cluster labels plus a cluster-pair
// cost table in O(n + k^2), making n in the tens of thousands
// generatable in milliseconds.

package gen

import (
	"fmt"

	"matchsim/internal/graph"
	"matchsim/internal/xrand"
)

// LargeConfig parameterises the large sparse instances.
type LargeConfig struct {
	// Paper carries the Section 5.2 weight ranges (only the weight
	// fields are used; the density fields are ignored).
	Paper PaperConfig
	// AvgDegree is the target mean TIG degree; default 8. Sparse
	// bounded-degree graphs are what data-parallel stencils and overset
	// grids look like at scale, and they keep CE scoring O(n).
	AvgDegree int
	// Clusters is the number of platform clusters; default max(2, n/64):
	// cheap intra-cluster links, expensive inter-cluster links drawn per
	// cluster pair — a two-level hierarchy.
	Clusters int
	// InterFactor scales inter-cluster link costs relative to the paper's
	// link range; default 4.
	InterFactor float64
}

func (c LargeConfig) withDefaults(n int) LargeConfig {
	if c.Paper.TaskWeightHi == 0 {
		c.Paper = DefaultPaperConfig()
	}
	if c.AvgDegree == 0 {
		c.AvgDegree = 8
	}
	if c.Clusters == 0 {
		c.Clusters = n / 64
		if c.Clusters < 2 {
			c.Clusters = 2
		}
	}
	if c.InterFactor == 0 {
		c.InterFactor = 4
	}
	return c
}

// SparseTIG generates a connected n-task TIG with roughly AvgDegree mean
// degree: a random spanning tree for connectivity plus random extra
// edges, deduplicated through a hash set so generation is O(n + M)
// instead of PaperTIG's O(M^2) edge-list scans. Weights follow the
// paper's Section 5.2 ranges.
func SparseTIG(rng *xrand.RNG, n int, cfg LargeConfig) (*graph.TIG, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: TIG size %d < 1", n)
	}
	cfg = cfg.withDefaults(n)
	if err := cfg.Paper.validate(); err != nil {
		return nil, err
	}
	if cfg.AvgDegree < 1 {
		return nil, fmt.Errorf("gen: average degree %d < 1", cfg.AvgDegree)
	}
	t := graph.NewTIG(n)
	t.Name = fmt.Sprintf("sparse-tig-%d", n)
	for i := 0; i < n; i++ {
		t.Weights[i] = float64(rng.IntRange(cfg.Paper.TaskWeightLo, cfg.Paper.TaskWeightHi))
	}
	commW := func() float64 {
		return float64(rng.IntRange(cfg.Paper.CommWeightLo, cfg.Paper.CommWeightHi))
	}
	seen := make(map[int64]struct{}, n*cfg.AvgDegree/2+n)
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)*int64(n) + int64(v)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		seen[key(u, v)] = struct{}{}
		t.MustAddEdge(u, v, commW())
	}
	targetEdges := n * cfg.AvgDegree / 2
	maxEdges := n * (n - 1) / 2
	if targetEdges > maxEdges {
		targetEdges = maxEdges
	}
	attempts := 0
	for t.M() < targetEdges && attempts < 50*targetEdges {
		attempts++
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if _, dup := seen[key(u, v)]; dup {
			continue
		}
		seen[key(u, v)] = struct{}{}
		t.MustAddEdge(u, v, commW())
	}
	return t, nil
}

// HierarchicalPlatform generates an n-resource platform organised in
// Clusters clusters: resources within a cluster communicate at a cheap
// link cost drawn from the paper's [LinkCostLo, LinkCostHi] range, and
// each cluster pair communicates at one expensive cost — InterFactor
// times a draw from the same range — shared by all its resource pairs
// (messages cross one aggregated uplink). The platform is a block
// platform (see graph.NewResourceGraphBlocks): resource s carries its
// cluster label s*k/n (contiguous, near-equal cluster sizes), and the
// k x k table holds each cluster's intra-cluster cost on its diagonal and
// each cluster pair's cost off it, so the platform takes O(n + k^2)
// memory and no O(n^2) matrix or O(n^3) closure is built. The draws are
// the processing costs in resource order, then per cluster a its intra
// cost followed by the costs of pairs (a, b) for b > a.
func HierarchicalPlatform(rng *xrand.RNG, n int, cfg LargeConfig) (*graph.ResourceGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: platform size %d < 1", n)
	}
	cfg = cfg.withDefaults(n)
	if err := cfg.Paper.validate(); err != nil {
		return nil, err
	}
	k := cfg.Clusters
	if k < 1 || k > n {
		return nil, fmt.Errorf("gen: %d clusters for %d resources", k, n)
	}
	if cfg.InterFactor < 1 {
		return nil, fmt.Errorf("gen: inter-cluster factor %v < 1", cfg.InterFactor)
	}
	costs := make([]float64, n)
	labels := make([]int32, n)
	for s := 0; s < n; s++ {
		costs[s] = float64(rng.IntRange(cfg.Paper.ResourceCostLo, cfg.Paper.ResourceCostHi))
		labels[s] = int32(s * k / n)
	}
	block := make([]float64, k*k)
	for a := 0; a < k; a++ {
		block[a*k+a] = float64(rng.IntRange(cfg.Paper.LinkCostLo, cfg.Paper.LinkCostHi))
		for b := a + 1; b < k; b++ {
			c := cfg.InterFactor * float64(rng.IntRange(cfg.Paper.LinkCostLo, cfg.Paper.LinkCostHi))
			block[a*k+b] = c
			block[b*k+a] = c
		}
	}
	r, err := graph.NewResourceGraphBlocks(costs, labels, block)
	if err != nil {
		return nil, err
	}
	r.Name = fmt.Sprintf("hier-platform-%d-c%d", n, k)
	return r, nil
}

// LargeInstance generates one large sparse instance with |Vt| = |Vr| = n,
// deterministically from seed.
func LargeInstance(seed uint64, n int, cfg LargeConfig) (*graph.Instance, error) {
	rng := xrand.New(seed)
	tig, err := SparseTIG(rng, n, cfg)
	if err != nil {
		return nil, err
	}
	platform, err := HierarchicalPlatform(rng, n, cfg)
	if err != nil {
		return nil, err
	}
	return &graph.Instance{TIG: tig, Platform: platform, Seed: seed}, nil
}
