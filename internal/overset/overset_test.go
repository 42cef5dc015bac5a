package overset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{2, 3, 4}}
	if !b.Valid() {
		t.Fatal("valid box reported invalid")
	}
	if b.Volume() != 24 {
		t.Fatalf("volume %v", b.Volume())
	}
	c := b.Center()
	if c.X != 1 || c.Y != 1.5 || c.Z != 2 {
		t.Fatalf("center %v", c)
	}
	e := b.Extent()
	if e.X != 2 || e.Y != 3 || e.Z != 4 {
		t.Fatalf("extent %v", e)
	}
	inv := Box{Lo: Vec3{1, 0, 0}, Hi: Vec3{0, 1, 1}}
	if inv.Valid() {
		t.Fatal("inverted box reported valid")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{2, 2, 2}}
	b := Box{Lo: Vec3{1, 1, 1}, Hi: Vec3{3, 3, 3}}
	ov, ok := a.Intersect(b)
	if !ok {
		t.Fatal("overlapping boxes reported disjoint")
	}
	if ov.Lo != (Vec3{1, 1, 1}) || ov.Hi != (Vec3{2, 2, 2}) {
		t.Fatalf("overlap %v", ov)
	}
	if ov.Volume() != 1 {
		t.Fatalf("overlap volume %v", ov.Volume())
	}
	// Touching faces (zero volume) do not count as overlap.
	c := Box{Lo: Vec3{2, 0, 0}, Hi: Vec3{4, 2, 2}}
	if _, ok := a.Intersect(c); ok {
		t.Fatal("face-touching boxes reported overlapping")
	}
	d := Box{Lo: Vec3{5, 5, 5}, Hi: Vec3{6, 6, 6}}
	if _, ok := a.Intersect(d); ok {
		t.Fatal("disjoint boxes reported overlapping")
	}
}

func TestBoxUnion(t *testing.T) {
	a := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 1}}
	b := Box{Lo: Vec3{2, -1, 0.5}, Hi: Vec3{3, 0.5, 2}}
	u := a.Union(b)
	if u.Lo != (Vec3{0, -1, 0}) || u.Hi != (Vec3{3, 1, 2}) {
		t.Fatalf("union %v", u)
	}
}

func TestVec3Ops(t *testing.T) {
	v := Vec3{3, 4, 0}
	if v.Norm() != 5 {
		t.Fatalf("norm %v", v.Norm())
	}
	s := v.Scale(2)
	if s.X != 6 || s.Y != 8 {
		t.Fatalf("scale %v", s)
	}
	a := v.Add(Vec3{1, 1, 1})
	if a.X != 4 || a.Y != 5 || a.Z != 1 {
		t.Fatalf("add %v", a)
	}
}

func TestGridPointCounts(t *testing.T) {
	g := Grid{Box: Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{1, 1, 1}}, Spacing: 0.5}
	// 3 points per axis -> 27.
	if got := g.NumPoints(); got != 27 {
		t.Fatalf("NumPoints = %d, want 27", got)
	}
	// Half the box: extent 0.5 -> 2 points per clipped axis, 1x... careful:
	// clip to x in [0, 0.5]: nx = int(0.5/0.5)+1 = 2; full y,z: 3 each.
	half := Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{0.5, 1, 1}}
	if got := g.PointsIn(half); got != 2*3*3 {
		t.Fatalf("PointsIn(half) = %d, want 18", got)
	}
	if got := g.PointsIn(Box{Lo: Vec3{5, 5, 5}, Hi: Vec3{6, 6, 6}}); got != 0 {
		t.Fatalf("disjoint PointsIn = %d", got)
	}
}

func TestGenerateProducesConnectedTIG(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 30} {
		sys, err := Generate(42, Config{NumGrids: n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(sys.Grids) != n {
			t.Fatalf("n=%d: %d grids", n, len(sys.Grids))
		}
		tig, err := sys.TIG(1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tig.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 1 && !tig.IsConnected() {
			t.Fatalf("n=%d: disconnected overset TIG", n)
		}
		for i, w := range tig.Weights {
			if w <= 0 {
				t.Fatalf("n=%d: grid %d has no points", n, i)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(7, Config{NumGrids: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, Config{NumGrids: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Grids {
		if a.Grids[i].Box != b.Grids[i].Box || a.Grids[i].Spacing != b.Grids[i].Spacing {
			t.Fatalf("grid %d differs across identical seeds", i)
		}
	}
	c, err := Generate(8, Config{NumGrids: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Grids {
		if a.Grids[i].Box != c.Grids[i].Box {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical systems")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(1, Config{NumGrids: 0}); err == nil {
		t.Fatal("zero grids accepted")
	}
	if _, err := Generate(1, Config{NumGrids: 3, GridSizeLo: 5, GridSizeHi: 2}); err == nil {
		t.Fatal("inverted size range accepted")
	}
	if _, err := Generate(1, Config{NumGrids: 3, SpacingLo: 0.5, SpacingHi: 0.1}); err == nil {
		t.Fatal("inverted spacing range accepted")
	}
}

func TestOverlapsSymmetricAndPositive(t *testing.T) {
	sys, err := Generate(3, Config{NumGrids: 15})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for _, ov := range sys.Overlaps() {
		if ov.A >= ov.B {
			t.Fatalf("unordered overlap pair %v", ov)
		}
		if ov.Points <= 0 {
			t.Fatalf("non-positive overlap %v", ov)
		}
		key := [2]int{ov.A, ov.B}
		if seen[key] {
			t.Fatalf("duplicate overlap %v", ov)
		}
		seen[key] = true
	}
	// The construction guarantees a ring chain: at least n overlaps ... at
	// least n-1 are needed for connectivity.
	if len(seen) < len(sys.Grids)-1 {
		t.Fatalf("only %d overlaps for %d grids", len(seen), len(sys.Grids))
	}
}

func TestTIGNormalisation(t *testing.T) {
	sys, err := Generate(4, Config{NumGrids: 8})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sys.TIG(1)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := sys.TIG(0.001)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw.Weights {
		if math.Abs(scaled.Weights[i]-raw.Weights[i]*0.001) > 1e-9 {
			t.Fatalf("weight %d not scaled", i)
		}
	}
	if _, err := sys.TIG(0); err == nil {
		t.Fatal("zero normalisation accepted")
	}
}

func TestFinerSpacingMeansMorePoints(t *testing.T) {
	coarse := Grid{Box: Box{Lo: Vec3{0, 0, 0}, Hi: Vec3{4, 4, 4}}, Spacing: 1}
	fine := Grid{Box: coarse.Box, Spacing: 0.25}
	if fine.NumPoints() <= coarse.NumPoints() {
		t.Fatalf("finer grid has %d points vs coarse %d", fine.NumPoints(), coarse.NumPoints())
	}
}

// Property: generated systems always yield valid connected TIGs.
func TestGenerateProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%40)
		sys, err := Generate(seed, Config{NumGrids: n})
		if err != nil {
			return false
		}
		tig, err := sys.TIG(0.001)
		if err != nil {
			return false
		}
		return tig.Validate() == nil && tig.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateAdjacentGridsOverlap is the regression case for a seed whose
// stretched grids fell short of their ring successors, leaving the TIG
// disconnected. Every adjacent ring pair must overlap.
func TestGenerateAdjacentGridsOverlap(t *testing.T) {
	sys, err := Generate(0xc2d33649798c6bb1, Config{NumGrids: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TIG(0.001); err != nil {
		t.Fatal(err)
	}
	for i, g := range sys.Grids {
		next := sys.Grids[(i+1)%len(sys.Grids)]
		if _, ok := g.Box.Intersect(next.Box); !ok {
			t.Errorf("ring grids %d and %d do not overlap", i, next.ID)
		}
	}
}
