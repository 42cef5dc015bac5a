package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/stochmat"
)

// m2oEval pairs a paper TIG of the given task count with a paper platform
// of the given resource count, so |Vt| and |Vr| can differ.
func m2oEval(t testing.TB, seed uint64, tasks, resources int) *cost.Evaluator {
	t.Helper()
	ti, err := gen.PaperInstance(seed, tasks, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	ri, err := gen.PaperInstance(seed+1, resources, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := cost.NewEvaluator(ti.TIG, ri.Platform)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runDigest hashes every deterministic bit of a run: the mapping, the
// Exec bits, the effort counters, the stop reason, the search fields of
// each history record, and every snapshot and the final matrix bit for
// bit. Wall-clock fields are left out.
func runDigest(res *Result) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	matrix := func(m *stochmat.Matrix) {
		word(uint64(m.Rows()))
		word(uint64(m.Cols()))
		for i := 0; i < m.Rows(); i++ {
			for _, p := range m.Row(i) {
				word(math.Float64bits(p))
			}
		}
	}
	word(uint64(len(res.Mapping)))
	for _, j := range res.Mapping {
		word(uint64(j))
	}
	word(math.Float64bits(res.Exec))
	word(uint64(res.Iterations))
	word(uint64(res.Evaluations))
	h.Write([]byte(res.StopReason))
	word(uint64(len(res.History)))
	for _, s := range res.History {
		word(uint64(s.Iter))
		for _, f := range []float64{s.Gamma, s.Best, s.Worst, s.Mean, s.BestSoFar} {
			word(math.Float64bits(f))
		}
		for _, c := range []int{s.EliteCount, s.Draws, s.Island, s.MigrantsIn, s.MigrantsOut, s.BlendRounds} {
			word(uint64(c))
		}
		word(s.RejectTries)
		word(s.FallbackDraws)
	}
	word(uint64(len(res.Snapshots)))
	for _, s := range res.Snapshots {
		word(uint64(s.Iter))
		matrix(s.Matrix)
	}
	matrix(res.FinalMatrix)
	return hex.EncodeToString(h.Sum(nil))
}

// TestManyToOneGolden pins complete ManyToOne runs bit for bit, on
// |Vt| != |Vr| and |Vt| = |Vr| instances, cold and warm-started, with and
// without snapshots, at several worker counts. Every case must pass
// unedited across refactors of the CE problem; a digest moves only when
// the many-to-one search is meant to change.
func TestManyToOneGolden(t *testing.T) {
	rect := m2oEval(t, 31, 12, 5)
	square := m2oEval(t, 37, 10, 10)
	rectWarm := cost.Mapping{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 0}
	squareWarm := cost.Mapping{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	cases := []struct {
		name    string
		eval    *cost.Evaluator
		opts    Options
		workers []int
		want    string
	}{
		{"rect", rect, Options{Seed: 1, MaxIterations: 40}, []int{1, 2, 3},
			"030368eb27a9d8b5e7ce75b884dd9086ccd1c4d833b54b69d5ff820555eb028b"},
		{"square", square, Options{Seed: 2, MaxIterations: 40}, []int{1, 2, 3},
			"8173e977f108716cf6748a8e1b2ca6799bc32052c25675deb3f929c2bbfe8fb3"},
		{"rect-warm", rect, Options{Seed: 3, MaxIterations: 30, WarmStart: rectWarm}, []int{1, 3},
			"d94b2ddd72ac123a76f3b33a0d1889a1397803bd5d515012d3c2eec0db7e72bb"},
		{"rect-snap", rect, Options{Seed: 4, MaxIterations: 25, SnapshotEvery: 4}, []int{1, 2},
			"2e02f7fd42f996bcfde8341678c339330d41e0a09f9c05062ef52fe00e659030"},
		{"square-warm-snap", square, Options{Seed: 5, MaxIterations: 30, WarmStart: squareWarm, SnapshotEvery: 3}, []int{2, 3},
			"acbc9a70bd3a0eb08eb2b5270be51eee7144ee326354d0654cbdf6ef251dd2cc"},
	}
	for _, c := range cases {
		for _, w := range c.workers {
			opts := c.opts
			opts.Workers = w
			res, err := ManyToOne(c.eval, opts)
			if err != nil {
				t.Fatalf("%s/w%d: %v", c.name, w, err)
			}
			if got := runDigest(res); got != c.want {
				t.Errorf("%s/w%d: digest %s, want %s", c.name, w, got, c.want)
			}
		}
	}
}

// TestManyToOneIgnoresPlainOnlyOptions holds that Polish, checkpoint
// export, Multilevel and Islands leave a many-to-one run untouched, and
// that its result is not resumable.
func TestManyToOneIgnoresPlainOnlyOptions(t *testing.T) {
	e := m2oEval(t, 31, 12, 5)
	base := Options{Seed: 1, Workers: 2, MaxIterations: 40}
	ref, err := ManyToOne(e, base)
	if err != nil {
		t.Fatal(err)
	}
	loaded := base
	loaded.Polish = true
	loaded.CheckpointEvery = 1
	loaded.OnCheckpoint = func(*Checkpoint) { t.Error("many-to-one run exported a checkpoint") }
	loaded.Multilevel = &MultilevelOptions{}
	loaded.Islands = &IslandOptions{Count: 2}
	got, err := ManyToOne(e, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if runDigest(got) != runDigest(ref) {
		t.Fatal("Polish/CheckpointEvery/Multilevel/Islands changed a many-to-one run")
	}
	if got.Levels != nil || got.Islands != 0 {
		t.Fatalf("many-to-one result took another path: %+v", got)
	}
	if CheckpointFrom(got) != nil || CheckpointFrom(ref) != nil {
		t.Fatal("many-to-one result yielded a checkpoint")
	}
}
