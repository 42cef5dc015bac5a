package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"matchsim/internal/ce"
)

func TestCheckpointRoundTrip(t *testing.T) {
	e := paperEval(t, 30, 10)
	res, err := Solve(e, Options{Seed: 1, Workers: 2, MaxIterations: 8, GammaStallWindow: 9})
	if err != nil {
		t.Fatal(err)
	}
	cp := CheckpointFrom(res)
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Iterations != res.Iterations || back.BestExec != res.Exec {
		t.Fatalf("round trip changed counters: %+v", back)
	}
	for i := range back.Best {
		if back.Best[i] != res.Mapping[i] {
			t.Fatal("incumbent changed in round trip")
		}
	}
	if back.Matrix.Rows() != 10 {
		t.Fatalf("matrix shape %d", back.Matrix.Rows())
	}
}

func TestResumeContinuesRun(t *testing.T) {
	e := paperEval(t, 31, 12)
	// Interrupted short run.
	first, err := Solve(e, Options{Seed: 2, Workers: 2, MaxIterations: 5, GammaStallWindow: 200})
	if err != nil {
		t.Fatal(err)
	}
	cp := CheckpointFrom(first)

	resumed, err := Resume(e, cp, Options{Seed: 3, Workers: 2, MaxIterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Resumption cannot lose the incumbent.
	if resumed.Exec > first.Exec {
		t.Fatalf("resume regressed: %v after %v", resumed.Exec, first.Exec)
	}
	if !resumed.Mapping.IsPermutation() {
		t.Fatal("resumed mapping invalid")
	}
	if math.Abs(e.Exec(resumed.Mapping)-resumed.Exec) > 1e-9 {
		t.Fatal("resumed exec inconsistent")
	}
	// A resumed long run should match the quality of an uninterrupted
	// long run (both near-converged).
	full, err := Solve(e, Options{Seed: 2, Workers: 2, MaxIterations: 105})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Exec > 1.1*full.Exec {
		t.Fatalf("resumed quality %v far from uninterrupted %v", resumed.Exec, full.Exec)
	}
}

func TestResumeStartsFromCheckpointMatrix(t *testing.T) {
	e := paperEval(t, 32, 8)
	first, err := Solve(e, Options{Seed: 4, Workers: 1, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	cp := CheckpointFrom(first)
	// Resuming a converged run with snapshots must begin from the
	// checkpointed (concentrated) matrix, not uniform.
	resumed, err := Resume(e, cp, Options{Seed: 5, Workers: 1, MaxIterations: 3, GammaStallWindow: 100, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	initial := resumed.Snapshots[0].Matrix
	// Entropy should match the checkpoint's concentrated matrix, far
	// below the uniform ln(8).
	if math.Abs(initial.MeanEntropy()-cp.Matrix.MeanEntropy()) > 1e-9 {
		t.Fatalf("resume initial entropy %v != checkpoint %v", initial.MeanEntropy(), cp.Matrix.MeanEntropy())
	}
	if initial.MeanEntropy() > 0.5*math.Log(8) {
		t.Fatalf("resume started from a diffuse matrix (entropy %v)", initial.MeanEntropy())
	}
}

func TestDecodeCheckpointRejectsCorrupt(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeCheckpoint([]byte(`{"iterations":1}`)); err == nil {
		t.Fatal("missing matrix accepted")
	}
	// Valid checkpoint with corrupted incumbent.
	e := paperEval(t, 33, 6)
	res, err := Solve(e, Options{Seed: 1, Workers: 1, MaxIterations: 5, GammaStallWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	cp := CheckpointFrom(res)
	cp.Best[0] = cp.Best[1] // break the permutation
	if _, err := Resume(e, cp, Options{}); err == nil {
		t.Fatal("broken incumbent accepted")
	}
}

func TestResumeShapeMismatch(t *testing.T) {
	e6 := paperEval(t, 34, 6)
	e8 := paperEval(t, 34, 8)
	res, err := Solve(e6, Options{Seed: 1, Workers: 1, MaxIterations: 5, GammaStallWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(e8, CheckpointFrom(res), Options{}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestCheckpointIsDeepCopy(t *testing.T) {
	e := paperEval(t, 35, 6)
	res, err := Solve(e, Options{Seed: 1, Workers: 1, MaxIterations: 5, GammaStallWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	cp := CheckpointFrom(res)
	cp.Best[0] = 99
	if res.Mapping[0] == 99 {
		t.Fatal("checkpoint aliases the result mapping")
	}
	if err := cp.Matrix.SetRow(0, []float64{1, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if res.FinalMatrix.At(0, 0) == 1 && res.FinalMatrix.At(0, 1) == 0 {
		t.Fatal("checkpoint aliases the result matrix")
	}
}

// TestDecodeCheckpointValidateBranches exercises every validate() error
// path individually by mutating an encoded good checkpoint: non-square
// matrix, argmax length mismatch, non-permutation incumbent, wrong-length
// incumbent, and negative counters.
func TestDecodeCheckpointValidateBranches(t *testing.T) {
	e := paperEval(t, 36, 6)
	res, err := Solve(e, Options{Seed: 1, Workers: 1, MaxIterations: 5, GammaStallWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	good := CheckpointFrom(res)

	mutate := func(t *testing.T, name string, f func(c *Checkpoint)) {
		t.Helper()
		data, err := good.Encode()
		if err != nil {
			t.Fatal(err)
		}
		var c Checkpoint
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatal(err)
		}
		f(&c)
		bad, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Errorf("%s accepted", name)
		} else {
			t.Logf("%s rejected: %v", name, err)
		}
	}

	mutate(t, "argmax length mismatch", func(c *Checkpoint) {
		c.PrevArgmax = c.PrevArgmax[:len(c.PrevArgmax)-1]
	})
	mutate(t, "non-permutation incumbent", func(c *Checkpoint) {
		c.Best[0] = c.Best[1]
	})
	mutate(t, "wrong-length incumbent", func(c *Checkpoint) {
		c.Best = c.Best[:len(c.Best)-1]
	})
	mutate(t, "negative stable-runs counter", func(c *Checkpoint) {
		c.StableRuns = -1
	})
	mutate(t, "negative iteration counter", func(c *Checkpoint) {
		c.Iterations = -3
	})

	// The good checkpoint itself still round-trips (the mutations above
	// operated on copies).
	data, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

// TestDecodeCheckpointRejectsNonSquareMatrix builds the dimension
// mismatch validate() path, which cannot be reached by mutating a
// well-formed Matrix in memory.
func TestDecodeCheckpointRejectsNonSquareMatrix(t *testing.T) {
	e := paperEval(t, 37, 4)
	res, err := Solve(e, Options{Seed: 1, Workers: 1, MaxIterations: 3, GammaStallWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	data, err := CheckpointFrom(res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the matrix document to a 1x4 (rows x cols mismatch).
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var matrix map[string]json.RawMessage
	if err := json.Unmarshal(doc["matrix"], &matrix); err != nil {
		t.Fatal(err)
	}
	t.Logf("matrix fields: %v", keysOf(matrix))
	matrix["rows"] = json.RawMessage("1")
	patched, err := json.Marshal(matrix)
	if err != nil {
		t.Fatal(err)
	}
	doc["matrix"] = patched
	bad, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestDecodeCheckpointTruncatedJSON feeds every proper prefix of a valid
// encoding to the decoder: none may be accepted, and none may panic.
func TestDecodeCheckpointTruncatedJSON(t *testing.T) {
	e := paperEval(t, 38, 5)
	res, err := Solve(e, Options{Seed: 2, Workers: 1, MaxIterations: 4, GammaStallWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	data, err := CheckpointFrom(res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted:\n%s", cut, len(data), data[:cut])
		}
	}
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}

// TestResumeIsExact is the resume differential: for every k below the
// uninterrupted run's stop iteration, solving to k, checkpointing through
// a JSON round trip and resuming must reproduce the uninterrupted run bit
// for bit — mapping, exec, effort counters, stop reason, and the resumed
// history as the suffix of the uninterrupted one. The mid-run export at
// iteration k must encode to the same document as the solve-to-k
// checkpoint. Seed 34 polishes, so checkpoints must carry the CE
// incumbent rather than the polished mapping. Seed 35 loosens eq. 12 and
// tightens the gamma-stall window so its runs stop on a gamma stall,
// which only an exact resume of the stall counter reproduces.
func TestResumeIsExact(t *testing.T) {
	for _, seed := range []uint64{33, 34, 35} {
		for _, workers := range []int{1, 4} {
			seed, workers := seed, workers
			// The trailing "sparse0" is historical and keeps subtest IDs
			// stable.
			t.Run(fmt.Sprintf("seed%d/w%d/sparse0", seed, workers), func(t *testing.T) {
				t.Parallel()
				e := paperEval(t, seed, 12)
				opts := Options{Seed: seed, Workers: workers, MaxIterations: 200}
				switch seed {
				case 34:
					opts.Polish = true
				case 35:
					opts.StallC, opts.GammaStallWindow = 50, 3
				}
				exported := map[int][]byte{}
				full := opts
				full.CheckpointEvery = 1
				full.OnCheckpoint = func(c *Checkpoint) {
					data, err := c.Encode()
					if err != nil {
						t.Error(err)
					}
					exported[c.Iterations] = data
				}
				ref, err := Solve(e, full)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Iterations < 3 {
					t.Fatalf("uninterrupted run stopped after %d iterations; too short to test", ref.Iterations)
				}
				if seed == 35 && ref.StopReason != ce.StopGammaStall {
					t.Fatalf("seed 35 stopped on %s, want a gamma stall", ref.StopReason)
				}
				for k := 1; k < ref.Iterations; k++ {
					short := opts
					short.MaxIterations = k
					first, err := Solve(e, short)
					if err != nil {
						t.Fatal(err)
					}
					data, err := CheckpointFrom(first).Encode()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, exported[k]) {
						t.Fatalf("k=%d: solve-to-k checkpoint differs from the mid-run export", k)
					}
					cp, err := DecodeCheckpoint(data)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Resume(e, cp, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameRun(got, ref, k); err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
				}
			})
		}
	}
}

// sameRun reports how a run resumed after k iterations differs from the
// uninterrupted reference, or nil when it matches bit for bit.
func sameRun(got, ref *Result, k int) error {
	switch {
	case !equalInts(got.Mapping, ref.Mapping):
		return fmt.Errorf("mapping %v, want %v", got.Mapping, ref.Mapping)
	case math.Float64bits(got.Exec) != math.Float64bits(ref.Exec):
		return fmt.Errorf("exec %v, want %v", got.Exec, ref.Exec)
	case got.Iterations != ref.Iterations || got.Evaluations != ref.Evaluations:
		return fmt.Errorf("effort %d/%d, want %d/%d", got.Iterations, got.Evaluations, ref.Iterations, ref.Evaluations)
	case got.StopReason != ref.StopReason:
		return fmt.Errorf("stop %s, want %s", got.StopReason, ref.StopReason)
	case len(got.History) != len(ref.History)-k:
		return fmt.Errorf("history length %d, want %d", len(got.History), len(ref.History)-k)
	}
	for i, st := range got.History {
		if st.Search() != ref.History[k+i].Search() {
			return fmt.Errorf("iteration %d: %+v, want %+v", st.Iter, st.Search(), ref.History[k+i].Search())
		}
	}
	return nil
}

// TestResumeRejectsForgedBestExec: a checkpoint whose recorded incumbent
// score is not its mapping's score is invalid — Resume must not report it.
func TestResumeRejectsForgedBestExec(t *testing.T) {
	e := paperEval(t, 39, 8)
	res, err := Solve(e, Options{Seed: 1, Workers: 1, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	cp := CheckpointFrom(res)
	cp.BestExec = 1
	if _, err := Resume(e, cp, Options{Seed: 1, Workers: 1}); err == nil {
		t.Fatal("forged best_exec accepted")
	}
	cp.BestExec = math.Nextafter(e.Exec(cp.Best), math.Inf(1))
	if _, err := Resume(e, cp, Options{Seed: 1, Workers: 1}); err == nil {
		t.Fatal("best_exec one ulp off accepted")
	}
}

// TestResumeFromSparseCheckpoint: testdata/sparse-checkpoint.json was
// written at iteration 25 by a run of the since-deleted sparse-row
// update, whose truncation left exact zeros in P. Such checkpoints must
// still decode, verify and resume, now under the eq. (13) update.
func TestResumeFromSparseCheckpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/sparse-checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("sparse-run checkpoint rejected by the decoder: %v", err)
	}
	zeros := 0
	for i := 0; i < cp.Matrix.Rows(); i++ {
		for _, v := range cp.Matrix.Row(i) {
			if v == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Fatal("fixture matrix has no exact zeros; it is not a sparse-run checkpoint")
	}
	e := paperEval(t, 33, 12)
	if err := cp.Verify(e); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	res, err := Resume(e, cp, Options{Seed: 33, Workers: 1, MaxIterations: 60})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if res.Iterations <= cp.Iterations || !res.Mapping.IsPermutation() {
		t.Fatalf("resumed run: %d iterations (checkpoint at %d), mapping %v", res.Iterations, cp.Iterations, res.Mapping)
	}
	if res.Exec > cp.BestExec || e.Exec(res.Mapping) != res.Exec {
		t.Fatalf("resumed exec %v: checkpoint best %v, evaluated %v", res.Exec, cp.BestExec, e.Exec(res.Mapping))
	}
}

// TestResumeRejectsLegacyCheckpoint: an unversioned document still decodes
// (old files stay readable) but cannot resume exactly, so Resume refuses.
func TestResumeRejectsLegacyCheckpoint(t *testing.T) {
	e := paperEval(t, 40, 8)
	res, err := Solve(e, Options{Seed: 1, Workers: 1, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	cp := CheckpointFrom(res)
	cp.Version = 0
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("legacy checkpoint rejected by the decoder: %v", err)
	}
	if _, err := Resume(e, legacy, Options{Seed: 1, Workers: 1}); err == nil {
		t.Fatal("legacy checkpoint resumed")
	}
}
