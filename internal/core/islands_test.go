package core

import (
	"context"
	"math"
	"testing"

	"matchsim/internal/ce"
)

// islandTestOptions is a small, fast ensemble configuration used across
// the island tests.
func islandTestOptions(seed uint64, count, workers int) Options {
	return Options{
		Seed:          seed,
		Workers:       workers,
		MaxIterations: 30,
		Islands: &IslandOptions{
			Count:        count,
			Topology:     "ring",
			MigrateEvery: 3,
			MigrantCount: 2,
			BlendAlpha:   0.2,
		},
	}
}

func TestSolveIslandsBasic(t *testing.T) {
	eval := paperEval(t, 7, 16)
	res, err := Solve(eval, islandTestOptions(42, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Islands != 3 {
		t.Fatalf("Islands = %d, want 3", res.Islands)
	}
	if !res.Mapping.IsPermutation() {
		t.Fatalf("mapping %v is not a permutation", res.Mapping)
	}
	if got := eval.Exec(res.Mapping); math.Float64bits(got) != math.Float64bits(res.Exec) {
		t.Fatalf("reported exec %v, recomputed %v", res.Exec, got)
	}
	if res.FinalMatrix != nil {
		t.Fatal("island runs must not report a final matrix")
	}
	// History carries all islands, ordered by (Iter, Island), with
	// exchange telemetry on migration iterations.
	seen := map[int]bool{}
	exchanges := 0
	for i, st := range res.History {
		seen[st.Island] = true
		if st.Island < 0 || st.Island >= 3 {
			t.Fatalf("history[%d] labelled island %d", i, st.Island)
		}
		if i > 0 {
			prev := res.History[i-1]
			if st.Iter < prev.Iter || (st.Iter == prev.Iter && st.Island <= prev.Island) {
				t.Fatalf("history not ordered by (iter, island): %d/%d after %d/%d",
					st.Iter, st.Island, prev.Iter, prev.Island)
			}
		}
		if st.MigrantsOut > 0 || st.BlendRounds > 0 {
			exchanges++
			if st.Iter%3 != 0 {
				t.Fatalf("exchange telemetry on non-migration iteration %d", st.Iter)
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("history covers islands %v, want all of 0..2", seen)
	}
	if exchanges == 0 {
		t.Fatal("no exchange rounds recorded in history")
	}
	// The ensemble's per-iteration draw budget is split across islands.
	wantDraws := (2*16*16 + 2) / 3
	if res.History[0].Draws != wantDraws {
		t.Fatalf("per-island draws = %d, want %d", res.History[0].Draws, wantDraws)
	}
}

// TestSolveIslandsDeterministicAcrossWorkerCounts pins the tentpole
// guarantee: per (seed, topology, I) the whole ensemble — mapping, exec,
// and every island's search history — is bit-identical no matter how the
// islands' worker pools are scheduled.
func TestSolveIslandsDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, topo := range []string{"ring", "all"} {
		opts := islandTestOptions(11, 3, 1)
		opts.Islands.Topology = topo
		eval := paperEval(t, 3, 16)
		ref, err := Solve(eval, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			opts := islandTestOptions(11, 3, w)
			opts.Islands.Topology = topo
			got, err := Solve(eval, opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Exec) != math.Float64bits(ref.Exec) || !equalInts(got.Mapping, ref.Mapping) {
				t.Fatalf("topology %s workers=%d: result diverges (%v vs %v)", topo, w, got.Exec, ref.Exec)
			}
			if len(got.History) != len(ref.History) {
				t.Fatalf("topology %s workers=%d: history length %d != %d", topo, w, len(got.History), len(ref.History))
			}
			for i := range got.History {
				if !sameIterSearchStats(got.History[i], ref.History[i]) {
					t.Fatalf("topology %s workers=%d: history[%d] diverges:\n%+v\n%+v",
						topo, w, i, got.History[i], ref.History[i])
				}
			}
		}
	}
}

// TestSolveIslandsCountOneIsPlainPath: Islands with Count <= 1 must be
// bit-identical to not configuring islands at all.
func TestSolveIslandsCountOneIsPlainPath(t *testing.T) {
	eval := paperEval(t, 5, 12)
	plain, err := Solve(eval, Options{Seed: 9, Workers: 1, MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	withOpts, err := Solve(eval, Options{Seed: 9, Workers: 1, MaxIterations: 40,
		Islands: &IslandOptions{Count: 1, MigrateEvery: 5, MigrantCount: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plain.Exec) != math.Float64bits(withOpts.Exec) || !equalInts(plain.Mapping, withOpts.Mapping) {
		t.Fatalf("Count=1 diverges from plain path: %v vs %v", withOpts.Exec, plain.Exec)
	}
	if withOpts.Islands != 0 {
		t.Fatalf("Count=1 run reports Islands = %d", withOpts.Islands)
	}
	if plain.Iterations != withOpts.Iterations || len(plain.History) != len(withOpts.History) {
		t.Fatal("Count=1 trajectory diverges from plain path")
	}
}

// TestSolveIslandsMigrationOnlyAndBlendOnly: both exchange mechanisms
// work on their own.
func TestSolveIslandsMechanisms(t *testing.T) {
	eval := paperEval(t, 2, 12)
	for _, tc := range []struct {
		name string
		opts IslandOptions
	}{
		{"migration-only", IslandOptions{Count: 2, MigrateEvery: 2, MigrantCount: 2}},
		{"blend-only", IslandOptions{Count: 2, MigrateEvery: 2, MigrantCount: -1, BlendAlpha: 0.3}},
		{"all-topology", IslandOptions{Count: 3, Topology: "all", MigrateEvery: 2, MigrantCount: 1, BlendAlpha: 0.1}},
	} {
		opts := Options{Seed: 21, Workers: 1, MaxIterations: 20, Islands: &tc.opts}
		res, err := Solve(eval, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Mapping.IsPermutation() {
			t.Fatalf("%s: invalid mapping", tc.name)
		}
		blends, migrants := 0, 0
		for _, st := range res.History {
			blends += st.BlendRounds
			migrants += st.MigrantsIn
		}
		if tc.opts.BlendAlpha > 0 && blends == 0 {
			t.Fatalf("%s: no blend rounds recorded", tc.name)
		}
		if tc.opts.MigrantCount > 0 && migrants == 0 {
			t.Fatalf("%s: no migrants recorded", tc.name)
		}
		if tc.opts.MigrantCount < 0 && migrants != 0 {
			t.Fatalf("%s: migration disabled but %d migrants recorded", tc.name, migrants)
		}
	}
}

func TestSolveIslandsValidation(t *testing.T) {
	eval := paperEval(t, 2, 8)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"with-multilevel", Options{Islands: &IslandOptions{Count: 2}, Multilevel: &MultilevelOptions{}}},
		{"bad-topology", Options{Islands: &IslandOptions{Count: 2, Topology: "hypercube"}}},
		{"bad-alpha", Options{Islands: &IslandOptions{Count: 2, BlendAlpha: 1.5}}},
		{"no-mechanism", Options{Islands: &IslandOptions{Count: 2, MigrantCount: -1}}},
		{"bad-interval", Options{Islands: &IslandOptions{Count: 2, MigrateEvery: -3}}},
		{"remote-mismatch", Options{Islands: &IslandOptions{Count: 2, Remote: []bool{true}}}},
		{"all-remote", Options{Islands: &IslandOptions{Count: 2, Remote: []bool{true, true}}}},
		{"remote-no-transport", Options{Islands: &IslandOptions{Count: 2, Remote: []bool{false, true}}}},
		{"with-snapshots", Options{SnapshotEvery: 5, Islands: &IslandOptions{Count: 2}}},
	} {
		if _, err := Solve(eval, tc.opts); err == nil {
			t.Fatalf("%s: invalid options accepted", tc.name)
		}
	}
}

// TestSolveIslandsCancellation: a cancelled ensemble returns the
// best-so-far with StopCancelled once any island completed an iteration.
func TestSolveIslandsCancellation(t *testing.T) {
	eval := paperEval(t, 4, 12)
	ctx, cancel := context.WithCancel(context.Background())
	iterations := 0
	opts := islandTestOptions(13, 2, 1)
	opts.MaxIterations = 500
	opts.GammaStallWindow = 1000
	opts.Context = ctx
	opts.OnIteration = func(st ce.IterStats) {
		iterations++
		if iterations == 8 {
			cancel()
		}
	}
	res, err := Solve(eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != ce.StopCancelled {
		t.Fatalf("StopReason = %s, want %s", res.StopReason, ce.StopCancelled)
	}
	if !res.Mapping.IsPermutation() {
		t.Fatal("cancelled run returned invalid mapping")
	}
	if res.Iterations >= 500 {
		t.Fatal("cancellation did not cut the run short")
	}
}

// TestSolveIslandsWarmStart: each island starts from the biased matrix.
func TestSolveIslandsWarmStart(t *testing.T) {
	eval := paperEval(t, 6, 10)
	warm := make([]int, 10)
	for i := range warm {
		warm[i] = (i + 1) % 10
	}
	opts := islandTestOptions(17, 2, 1)
	opts.WarmStart = warm
	res, err := Solve(eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.IsPermutation() {
		t.Fatal("warm-started island run returned invalid mapping")
	}
}

// TestSolveIslandsPolish: polish still applies to the global best.
func TestSolveIslandsPolish(t *testing.T) {
	eval := paperEval(t, 8, 12)
	opts := islandTestOptions(23, 2, 1)
	noPolish, err := Solve(eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts = islandTestOptions(23, 2, 1)
	opts.Polish = true
	polished, err := Solve(eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if polished.Exec > noPolish.Exec {
		t.Fatalf("polish worsened exec: %v > %v", polished.Exec, noPolish.Exec)
	}
	if !polished.Mapping.IsPermutation() {
		t.Fatal("polished mapping invalid")
	}
}
