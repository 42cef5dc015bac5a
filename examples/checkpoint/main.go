// Checkpoint/resume and run tracing: operational features for long
// mapping jobs. A MaTCH run on a 30-node instance is deliberately
// interrupted after a few iterations, checkpointed to JSON, and resumed
// to convergence under the same seed; both phases stream into one JSONL
// trace that is then replayed, and the resumed result is compared with an
// uninterrupted run.
//
// Run with:
//
//	go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"slices"

	"matchsim/api"
	"matchsim/internal/ce"
	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/trace"
)

func main() {
	inst, err := gen.PaperInstance(2005, 30, gen.DefaultPaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		log.Fatal(err)
	}

	var traceBuf bytes.Buffer
	tw := trace.NewWriter(&traceBuf)

	onIter := func(st ce.IterStats) {
		tw.Iteration(api.Event{Iter: st.Iter, Gamma: st.Gamma, Best: st.Best, Mean: st.Mean, BestSoFar: st.BestSoFar})
	}

	// Phase 1: run five iterations, then "lose the machine".
	opts := core.Options{Seed: 1, MaxIterations: 500}
	interrupted := opts
	interrupted.MaxIterations = 5
	interrupted.OnIteration = onIter
	tw.Start("MaTCH", 30, 1)
	phase1, err := core.Solve(eval, interrupted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 (interrupted after %d iterations): best ET %.0f\n",
		phase1.Iterations, phase1.Exec)

	// Checkpoint to bytes (in production: a file).
	cp := core.CheckpointFrom(phase1)
	blob, err := cp.Encode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %d bytes (matrix %dx%d, incumbent %.0f)\n",
		len(blob), cp.Matrix.Rows(), cp.Matrix.Cols(), cp.BestExec)

	// Phase 2: decode and resume to convergence with the same options;
	// MaxIterations caps the whole chain.
	restored, err := core.DecodeCheckpoint(blob)
	if err != nil {
		log.Fatal(err)
	}
	resumed := opts
	resumed.OnIteration = onIter
	phase2, err := core.Resume(eval, restored, resumed)
	if err != nil {
		log.Fatal(err)
	}
	tw.End(phase2.Exec, phase2.Iterations, phase2.Evaluations, phase2.MappingTime, string(phase2.StopReason))
	tw.Flush()
	fmt.Printf("phase 2 (resumed): %d more iterations, %d in all, final ET %.0f (%s)\n",
		len(phase2.History), phase2.Iterations, phase2.Exec, phase2.StopReason)

	// Replay the combined trace.
	runs, err := trace.Read(&traceBuf)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, r := range runs {
		total += len(r.Iterations)
	}
	fmt.Printf("trace replay: %d run record(s), %d iteration events\n", len(runs), total)

	// The resume is exact: the same result as a run never interrupted.
	whole, err := core.Solve(eval, opts)
	if err != nil {
		log.Fatal(err)
	}
	same := slices.Equal(phase2.Mapping, whole.Mapping) &&
		math.Float64bits(phase2.Exec) == math.Float64bits(whole.Exec) &&
		phase2.Iterations == whole.Iterations && phase2.Evaluations == whole.Evaluations
	fmt.Printf("uninterrupted run: %d iterations, ET %.0f; resumed result identical: %v\n",
		whole.Iterations, whole.Exec, same)
}
