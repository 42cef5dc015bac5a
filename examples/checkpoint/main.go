// Checkpoint/resume and run tracing: operational features for long
// mapping jobs. A MaTCH run on a 30-node instance is deliberately
// interrupted after a few iterations, checkpointed to JSON, and resumed
// to convergence; both phases stream JSONL traces that are then replayed
// and compared.
//
// Run with:
//
//	go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"
	"log"

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
	tw.Start("MaTCH", 30, 1)
	phase1, err := core.Solve(eval, core.Options{
		Seed: 1, MaxIterations: 5, GammaStallWindow: 1000,
		OnIteration: onIter,
	})
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

	// Phase 2: decode and resume to convergence.
	restored, err := core.DecodeCheckpoint(blob)
	if err != nil {
		log.Fatal(err)
	}
	phase2, err := core.Resume(eval, restored, core.Options{
		Seed: 2, MaxIterations: 500,
		OnIteration: onIter,
	})
	if err != nil {
		log.Fatal(err)
	}
	tw.End(phase2.Exec, phase2.Iterations, phase2.Evaluations, phase2.MappingTime, string(phase2.StopReason))
	tw.Flush()
	fmt.Printf("phase 2 (resumed): %d more iterations, final ET %.0f (%s)\n",
		phase2.Iterations, phase2.Exec, phase2.StopReason)

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

	// Sanity: the resumed run can only improve on the checkpoint.
	if phase2.Exec <= phase1.Exec {
		fmt.Println("resume preserved all progress — no work was lost.")
	}
}
