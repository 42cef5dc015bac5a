// Package overset simulates the overset-grid CFD workloads that motivate
// the paper (Section 2, Fig. 1): the domain around an irregular 3-D body
// is covered by regularly shaped component grids; grids that overlap in
// space exchange boundary data, and the number of grid points in the
// overlap region sets the communication volume.
//
// The paper's own experiments use synthetic random graphs (its CFD meshes
// were not published), so this package is the documented substitution for
// the real overset systems: it builds a synthetic body, covers it with
// axis-aligned component grids of varying resolution, detects pairwise
// overlaps geometrically, and emits the corresponding Task Interaction
// Graph — node weight = grid points in the component grid, edge weight =
// grid points in the overlap region — exercising exactly the code path
// the paper's TIG model describes.
package overset

import (
	"fmt"
	"math"

	"matchsim/internal/graph"
	"matchsim/internal/xrand"
)

// Vec3 is a point in 3-space.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Box is an axis-aligned box [Lo, Hi] in 3-space.
type Box struct {
	Lo, Hi Vec3
}

// Valid reports whether Lo <= Hi on every axis.
func (b Box) Valid() bool {
	return b.Lo.X <= b.Hi.X && b.Lo.Y <= b.Hi.Y && b.Lo.Z <= b.Hi.Z
}

// Extent returns the box's side lengths.
func (b Box) Extent() Vec3 {
	return Vec3{b.Hi.X - b.Lo.X, b.Hi.Y - b.Lo.Y, b.Hi.Z - b.Lo.Z}
}

// Volume returns the box volume.
func (b Box) Volume() float64 {
	e := b.Extent()
	return e.X * e.Y * e.Z
}

// Center returns the box midpoint.
func (b Box) Center() Vec3 {
	return Vec3{(b.Lo.X + b.Hi.X) / 2, (b.Lo.Y + b.Hi.Y) / 2, (b.Lo.Z + b.Hi.Z) / 2}
}

// Intersect returns the overlap box of b and o and whether the two boxes
// overlap with positive volume.
func (b Box) Intersect(o Box) (Box, bool) {
	out := Box{
		Lo: Vec3{math.Max(b.Lo.X, o.Lo.X), math.Max(b.Lo.Y, o.Lo.Y), math.Max(b.Lo.Z, o.Lo.Z)},
		Hi: Vec3{math.Min(b.Hi.X, o.Hi.X), math.Min(b.Hi.Y, o.Hi.Y), math.Min(b.Hi.Z, o.Hi.Z)},
	}
	if out.Lo.X >= out.Hi.X || out.Lo.Y >= out.Hi.Y || out.Lo.Z >= out.Hi.Z {
		return Box{}, false
	}
	return out, true
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	return Box{
		Lo: Vec3{math.Min(b.Lo.X, o.Lo.X), math.Min(b.Lo.Y, o.Lo.Y), math.Min(b.Lo.Z, o.Lo.Z)},
		Hi: Vec3{math.Max(b.Hi.X, o.Hi.X), math.Max(b.Hi.Y, o.Hi.Y), math.Max(b.Hi.Z, o.Hi.Z)},
	}
}

// Grid is one component grid: a box discretised at uniform Spacing.
type Grid struct {
	ID      int
	Box     Box
	Spacing float64
}

// PointsIn returns the number of grid points of g that fall inside box
// (clipped to g's own box). A point count is (cells+1) per axis.
func (g Grid) PointsIn(box Box) int {
	overlap, ok := g.Box.Intersect(box)
	if !ok {
		return 0
	}
	e := overlap.Extent()
	nx := int(e.X/g.Spacing) + 1
	ny := int(e.Y/g.Spacing) + 1
	nz := int(e.Z/g.Spacing) + 1
	return nx * ny * nz
}

// NumPoints returns the total grid points of g.
func (g Grid) NumPoints() int { return g.PointsIn(g.Box) }

// System is a generated overset-grid configuration.
type System struct {
	Grids []Grid
	// Body is the set of sphere centers/radii describing the synthetic
	// body the grids wrap (kept for inspection and DOT rendering).
	BodyCenters []Vec3
	BodyRadii   []float64
}

// Config tunes the synthetic generator.
type Config struct {
	// NumGrids is the number of component grids (TIG vertices).
	NumGrids int
	// BodyRadius is the radius of the ring-shaped body axis the grids
	// follow; default 10.
	BodyRadius float64
	// GridSizeLo/Hi bound each grid's side length; defaults 3 and 6.
	GridSizeLo, GridSizeHi float64
	// SpacingLo/Hi bound each grid's resolution; defaults 0.2 and 0.5.
	// Finer spacing means more points: heavier compute and overlaps.
	SpacingLo, SpacingHi float64
	// ExtraOverlap stretches every grid towards its successor on the
	// body path by this fraction, guaranteeing a connected overlap chain;
	// default 0.35.
	ExtraOverlap float64
}

func (c Config) withDefaults() Config {
	if c.BodyRadius == 0 {
		c.BodyRadius = 10
	}
	if c.GridSizeLo == 0 {
		c.GridSizeLo = 3
	}
	if c.GridSizeHi == 0 {
		c.GridSizeHi = 6
	}
	if c.SpacingLo == 0 {
		c.SpacingLo = 0.2
	}
	if c.SpacingHi == 0 {
		c.SpacingHi = 0.5
	}
	if c.ExtraOverlap == 0 {
		c.ExtraOverlap = 0.35
	}
	return c
}

// Generate builds a synthetic overset system: component grids centred on
// a jittered ring around the body (the classic fuselage-like arrangement)
// with each grid stretched towards its successor so adjacent grids
// overlap, plus whatever additional overlaps proximity produces.
func Generate(seed uint64, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.NumGrids < 1 {
		return nil, fmt.Errorf("overset: NumGrids %d < 1", cfg.NumGrids)
	}
	if cfg.GridSizeLo <= 0 || cfg.GridSizeHi < cfg.GridSizeLo {
		return nil, fmt.Errorf("overset: bad grid size range [%v,%v]", cfg.GridSizeLo, cfg.GridSizeHi)
	}
	if cfg.SpacingLo <= 0 || cfg.SpacingHi < cfg.SpacingLo {
		return nil, fmt.Errorf("overset: bad spacing range [%v,%v]", cfg.SpacingLo, cfg.SpacingHi)
	}
	rng := xrand.New(seed)
	sys := &System{}

	// Body: a ring of spheres the grids wrap around.
	n := cfg.NumGrids
	centers := make([]Vec3, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		jitter := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(cfg.GridSizeLo * 0.2)
		centers[i] = Vec3{
			cfg.BodyRadius * math.Cos(theta),
			cfg.BodyRadius * math.Sin(theta),
			0,
		}.Add(jitter)
		sys.BodyCenters = append(sys.BodyCenters, centers[i])
		sys.BodyRadii = append(sys.BodyRadii, cfg.GridSizeLo/2)
	}

	for i := 0; i < n; i++ {
		half := rng.Float64Range(cfg.GridSizeLo, cfg.GridSizeHi) / 2
		c := centers[i]
		box := Box{
			Lo: Vec3{c.X - half, c.Y - half, c.Z - half},
			Hi: Vec3{c.X + half, c.Y + half, c.Z + half},
		}
		if n > 1 {
			// Stretch towards the successor to guarantee a chain overlap.
			next := centers[(i+1)%n]
			toward := Vec3{
				c.X + (next.X-c.X)*(0.5+cfg.ExtraOverlap),
				c.Y + (next.Y-c.Y)*(0.5+cfg.ExtraOverlap),
				c.Z + (next.Z-c.Z)*(0.5+cfg.ExtraOverlap),
			}
			point := Box{Lo: toward, Hi: toward}
			box = box.Union(point)
		}
		sys.Grids = append(sys.Grids, Grid{
			ID:      i,
			Box:     box,
			Spacing: rng.Float64Range(cfg.SpacingLo, cfg.SpacingHi),
		})
	}
	// The stretch falls short of a small successor whose jittered center
	// lies far away. Reach that center then: it is interior to the
	// successor's box, so every adjacent ring pair overlaps with positive
	// volume and the TIG contains the whole ring.
	for i := 0; n > 1 && i < n; i++ {
		next := (i + 1) % n
		if _, ok := sys.Grids[i].Box.Intersect(sys.Grids[next].Box); !ok {
			c := centers[next]
			sys.Grids[i].Box = sys.Grids[i].Box.Union(Box{Lo: c, Hi: c})
		}
	}
	return sys, nil
}

// Overlaps returns every overlapping grid pair with the point counts each
// side contributes to the overlap region (the communication volume is
// their mean, symmetrically rounded up).
type Overlap struct {
	A, B   int
	Points int
}

// Overlaps detects all pairwise overlaps in the system.
func (s *System) Overlaps() []Overlap {
	var out []Overlap
	for i := 0; i < len(s.Grids); i++ {
		for j := i + 1; j < len(s.Grids); j++ {
			region, ok := s.Grids[i].Box.Intersect(s.Grids[j].Box)
			if !ok {
				continue
			}
			pi := s.Grids[i].PointsIn(region)
			pj := s.Grids[j].PointsIn(region)
			pts := (pi + pj + 1) / 2
			if pts > 0 {
				out = append(out, Overlap{A: i, B: j, Points: pts})
			}
		}
	}
	return out
}

// TIG converts the overset system into the paper's Task Interaction
// Graph: one vertex per component grid weighted by its point count, one
// edge per overlapping pair weighted by the overlap's point count.
// Point counts are scaled by norm (use 1 for raw counts; the examples use
// 1e-3 to keep weights in the same numeric range as the paper's synthetic
// graphs). The result is guaranteed connected by construction.
func (s *System) TIG(norm float64) (*graph.TIG, error) {
	if norm <= 0 {
		return nil, fmt.Errorf("overset: non-positive normalisation %v", norm)
	}
	t := graph.NewTIG(len(s.Grids))
	t.Name = fmt.Sprintf("overset-%d", len(s.Grids))
	for i, g := range s.Grids {
		t.Weights[i] = float64(g.NumPoints()) * norm
	}
	for _, ov := range s.Overlaps() {
		if err := t.AddEdge(ov.A, ov.B, float64(ov.Points)*norm); err != nil {
			return nil, err
		}
	}
	if t.N() > 1 && !t.IsConnected() {
		return nil, fmt.Errorf("overset: generated system is disconnected (%d grids)", len(s.Grids))
	}
	return t, nil
}
