package gen

import (
	"testing"
	"testing/quick"

	"matchsim/internal/xrand"
)

func TestPaperTIGRespectsRanges(t *testing.T) {
	cfg := DefaultPaperConfig()
	rng := xrand.New(1)
	tig, err := PaperTIG(rng, 30, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tig.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tig.IsConnected() {
		t.Fatal("paper TIG disconnected")
	}
	for i, w := range tig.Weights {
		if w < float64(cfg.TaskWeightLo) || w > float64(cfg.TaskWeightHi) {
			t.Fatalf("task %d weight %v outside [%d,%d]", i, w, cfg.TaskWeightLo, cfg.TaskWeightHi)
		}
	}
	for _, e := range tig.Edges() {
		if e.Weight < float64(cfg.CommWeightLo) || e.Weight > float64(cfg.CommWeightHi) {
			t.Fatalf("edge (%d,%d) weight %v outside [%d,%d]", e.U, e.V, e.Weight, cfg.CommWeightLo, cfg.CommWeightHi)
		}
	}
}

func TestPaperTIGDensityNearTarget(t *testing.T) {
	cfg := DefaultPaperConfig()
	cfg.TIGDensity = 0.4
	tig, err := PaperTIG(xrand.New(2), 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxEdges := 40 * 39 / 2
	target := int(0.4 * float64(maxEdges))
	if tig.M() < target-40 || tig.M() > target+1 {
		t.Fatalf("edge count %d far from target %d", tig.M(), target)
	}
}

func TestPaperTIGDensityContrast(t *testing.T) {
	// With strong contrast, some region should be visibly denser:
	// max degree should comfortably exceed mean degree.
	cfg := DefaultPaperConfig()
	cfg.DensityContrast = 0.95
	tig, err := PaperTIG(xrand.New(3), 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minDeg, maxDeg := tig.N(), 0
	for v := 0; v < tig.N(); v++ {
		d := tig.Degree(v)
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 2*minDeg {
		t.Fatalf("expected density contrast; min=%d max=%d", minDeg, maxDeg)
	}
}

func TestPaperTIGSmallSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		tig, err := PaperTIG(xrand.New(4), n, DefaultPaperConfig())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tig.N() != n || !tig.IsConnected() {
			t.Fatalf("n=%d: bad TIG", n)
		}
	}
	if _, err := PaperTIG(xrand.New(1), 0, DefaultPaperConfig()); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestPaperConfigValidation(t *testing.T) {
	bad := DefaultPaperConfig()
	bad.TIGDensity = 0
	if _, err := PaperTIG(xrand.New(1), 5, bad); err == nil {
		t.Fatal("zero density accepted")
	}
	bad = DefaultPaperConfig()
	bad.TaskWeightHi = 0
	if _, err := PaperTIG(xrand.New(1), 5, bad); err == nil {
		t.Fatal("inverted task weight range accepted")
	}
	bad = DefaultPaperConfig()
	bad.DensityContrast = 1.5
	if _, err := PaperTIG(xrand.New(1), 5, bad); err == nil {
		t.Fatal("contrast > 1 accepted")
	}
}

func TestPaperPlatformRespectsRangesAndClosure(t *testing.T) {
	cfg := DefaultPaperConfig()
	r, err := PaperPlatform(xrand.New(5), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !r.FullyLinked() {
		t.Fatal("paper platform not closed")
	}
	for i, w := range r.Costs {
		if w < float64(cfg.ResourceCostLo) || w > float64(cfg.ResourceCostHi) {
			t.Fatalf("resource %d cost %v out of range", i, w)
		}
	}
	for _, e := range r.Edges() {
		if e.Weight < float64(cfg.LinkCostLo) || e.Weight > float64(cfg.LinkCostHi) {
			t.Fatalf("direct link (%d,%d) weight %v out of range", e.U, e.V, e.Weight)
		}
	}
}

func TestPaperInstanceDeterminism(t *testing.T) {
	a, err := PaperInstance(77, 15, DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := PaperInstance(77, 15, DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.TIG.M() != b.TIG.M() || a.Platform.M() != b.Platform.M() {
		t.Fatal("same seed produced different instances")
	}
	for i := range a.TIG.Weights {
		if a.TIG.Weights[i] != b.TIG.Weights[i] {
			t.Fatal("task weights differ across identical seeds")
		}
	}
	c, err := PaperInstance(78, 15, DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	same := a.TIG.M() == c.TIG.M()
	if same {
		for i := range a.TIG.Weights {
			if a.TIG.Weights[i] != c.TIG.Weights[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical instances")
	}
}

func TestPaperSuiteSizes(t *testing.T) {
	suite, err := PaperSuite(9, PaperSizes(), DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 5 {
		t.Fatalf("suite size %d", len(suite))
	}
	for i, inst := range suite {
		want := (i + 1) * 10
		if inst.TIG.N() != want || inst.Platform.N() != want {
			t.Fatalf("suite[%d] sizes %d/%d, want %d", i, inst.TIG.N(), inst.Platform.N(), want)
		}
		if err := inst.TIG.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := inst.Platform.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPaperInstanceProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%30)
		inst, err := PaperInstance(seed, n, DefaultPaperConfig())
		if err != nil {
			return false
		}
		return inst.TIG.Validate() == nil && inst.Platform.Validate() == nil &&
			inst.TIG.IsConnected() && inst.Platform.FullyLinked()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRingPlatform(t *testing.T) {
	r, err := RingPlatform(xrand.New(1), 8, 1, 2, DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	if r.M() != 8 {
		t.Fatalf("ring edge count %d", r.M())
	}
	if !r.FullyLinked() {
		t.Fatal("ring not closed")
	}
	if _, err := RingPlatform(xrand.New(1), 2, 1, 2, DefaultProfile()); err == nil {
		t.Fatal("ring n=2 accepted")
	}
}

func TestStarPlatform(t *testing.T) {
	r, err := StarPlatform(xrand.New(1), 6, 1, 2, DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	if r.M() != 5 || r.Degree(0) != 5 {
		t.Fatalf("star shape wrong: m=%d deg0=%d", r.M(), r.Degree(0))
	}
	// Spoke-to-spoke routes through the hub: cost = sum of two spoke links.
	c := r.LinkCost(1, 2)
	if c != r.LinkCost(0, 1)+r.LinkCost(0, 2) {
		t.Fatalf("spoke-to-spoke cost %v not routed through hub", c)
	}
}

func TestCliquePlatform(t *testing.T) {
	r, err := CliquePlatform(xrand.New(1), 7, 10, 20, DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	if r.M() != 21 {
		t.Fatalf("clique edge count %d", r.M())
	}
	if !r.FullyLinked() {
		t.Fatal("clique not fully linked")
	}
}

func TestMeshAndTorus(t *testing.T) {
	m, err := MeshPlatform(xrand.New(1), 3, 4, 1, 1, DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	// 3x4 mesh: 3*3 horizontal + 2*4 vertical = 17 edges.
	if m.M() != 17 {
		t.Fatalf("mesh edges %d, want 17", m.M())
	}
	// Unit link costs: corner-to-corner distance is Manhattan (2+3).
	if got := m.LinkCost(0, 11); got != 5 {
		t.Fatalf("mesh corner distance %v, want 5", got)
	}
	to, err := TorusPlatform(xrand.New(1), 3, 3, 1, 1, DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	if to.M() != 18 {
		t.Fatalf("torus edges %d, want 18", to.M())
	}
	if _, err := TorusPlatform(xrand.New(1), 2, 3, 1, 1, DefaultProfile()); err == nil {
		t.Fatal("2x3 torus accepted")
	}
}

func TestClusteredPlatform(t *testing.T) {
	prof := DefaultProfile()
	prof.Clustered = true
	r, err := ClusteredPlatform(xrand.New(1), 3, 4, 1, 2, 50, 60, prof)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 12 {
		t.Fatalf("clustered size %d", r.N())
	}
	// Homogeneous costs inside each cluster.
	for c := 0; c < 3; c++ {
		base := c * 4
		for k := 1; k < 4; k++ {
			if r.Costs[base+k] != r.Costs[base] {
				t.Fatalf("cluster %d heterogeneous costs", c)
			}
		}
	}
	// Cross-cluster cost must include an expensive wide-area hop.
	if got := r.LinkCost(1, 5); got < 50 {
		t.Fatalf("cross-cluster cost %v cheaper than any wide-area link", got)
	}
	// Intra-cluster stays cheap.
	if got := r.LinkCost(0, 1); got > 2 {
		t.Fatalf("intra-cluster cost %v", got)
	}
}

func TestGeometricTIG(t *testing.T) {
	tig, err := GeometricTIG(xrand.New(6), 40, 0.25, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tig.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tig.IsConnected() {
		t.Fatal("geometric TIG disconnected after repair")
	}
	// Tiny radius forces the repair path.
	sparse, err := GeometricTIG(xrand.New(7), 20, 0.01, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.IsConnected() {
		t.Fatal("repair did not connect sparse geometric TIG")
	}
	if _, err := GeometricTIG(xrand.New(1), 5, 0, 1, 10); err == nil {
		t.Fatal("zero radius accepted")
	}
}

func TestStencilTIG(t *testing.T) {
	tig, err := StencilTIG(xrand.New(1), 4, 5, 1, 10, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tig.N() != 20 {
		t.Fatalf("size %d", tig.N())
	}
	// 4x5 stencil: 4*4 horizontal + 3*5 vertical = 31 edges.
	if tig.M() != 31 {
		t.Fatalf("edges %d, want 31", tig.M())
	}
	if !tig.IsConnected() {
		t.Fatal("stencil disconnected")
	}
	// Interior vertices have degree 4, corners 2.
	if tig.Degree(0) != 2 {
		t.Fatalf("corner degree %d", tig.Degree(0))
	}
	if tig.Degree(1*5+2) != 4 {
		t.Fatalf("interior degree %d", tig.Degree(7))
	}
	if err := tig.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := StencilTIG(xrand.New(1), 1, 1, 1, 2, 1, 2); err == nil {
		t.Fatal("1x1 stencil accepted")
	}
	if _, err := StencilTIG(xrand.New(1), 2, 2, 5, 1, 1, 2); err == nil {
		t.Fatal("inverted weight range accepted")
	}
}

func TestScaleFreeTIG(t *testing.T) {
	tig, err := ScaleFreeTIG(xrand.New(2), 60, 2, 1, 10, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tig.N() != 60 {
		t.Fatalf("size %d", tig.N())
	}
	if err := tig.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tig.IsConnected() {
		t.Fatal("scale-free TIG disconnected")
	}
	// Seed clique (3 nodes, 3 edges) + 2 per added vertex.
	wantEdges := 3 + 2*(60-3)
	if tig.M() != wantEdges {
		t.Fatalf("edges %d, want %d", tig.M(), wantEdges)
	}
	// Preferential attachment must create at least one hub: max degree
	// far above the attachment constant.
	maxDeg := 0
	for v := 0; v < 60; v++ {
		if d := tig.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 6 {
		t.Fatalf("no hubs emerged: max degree %d", maxDeg)
	}
	if _, err := ScaleFreeTIG(xrand.New(1), 1, 1, 1, 2, 1, 2); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := ScaleFreeTIG(xrand.New(1), 5, 5, 1, 2, 1, 2); err == nil {
		t.Fatal("attach >= n accepted")
	}
}

func TestFamiliesMappable(t *testing.T) {
	// Both families must plug straight into the evaluator + MaTCH chain.
	rng := xrand.New(3)
	stencil, err := StencilTIG(rng, 3, 4, 1, 10, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := PaperPlatform(rng, 12, DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stencil.NumTasks() != platform.NumResources() {
		t.Fatal("shape mismatch")
	}
}
