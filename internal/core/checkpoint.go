package core

import (
	"encoding/json"
	"fmt"

	"matchsim/internal/cost"
	"matchsim/internal/stochmat"
)

// Checkpoint captures a MaTCH run's resumable state: the stochastic
// matrix, the eq. 12 stability bookkeeping, and the incumbent mapping.
// Long mapping jobs (the paper reports runs of tens of minutes on its
// hardware) can be stopped and resumed without losing progress.
type Checkpoint struct {
	// Iterations completed when the checkpoint was taken.
	Iterations int `json:"iterations"`
	// Matrix is the current sampling distribution P_k.
	Matrix *stochmat.Matrix `json:"matrix"`
	// PrevArgmax and StableRuns carry the eq. 12 stop state.
	PrevArgmax []int `json:"prev_argmax"`
	StableRuns int   `json:"stable_runs"`
	// Best and BestExec are the incumbent solution.
	Best     cost.Mapping `json:"best"`
	BestExec float64      `json:"best_exec"`
}

// CheckpointFrom extracts a resumable checkpoint from a finished (or
// interrupted) run's Result. Multilevel results carry no final matrix at
// the fine size (the CE matrix lives at the coarse level only) and return
// nil: they are not resumable.
func CheckpointFrom(res *Result) *Checkpoint {
	if res.FinalMatrix == nil {
		return nil
	}
	return &Checkpoint{
		Iterations: res.Iterations,
		Matrix:     res.FinalMatrix.Clone(),
		PrevArgmax: append([]int(nil), res.finalArgmax...),
		StableRuns: res.finalStableRuns,
		Best:       res.Mapping.Clone(),
		BestExec:   res.Exec,
	}
}

// Encode serialises the checkpoint as JSON.
func (c *Checkpoint) Encode() ([]byte, error) { return json.Marshal(c) }

// DecodeCheckpoint parses and validates a checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

func (c *Checkpoint) validate() error {
	if c.Matrix == nil {
		return fmt.Errorf("core: checkpoint missing matrix")
	}
	n := c.Matrix.Rows()
	if c.Matrix.Cols() != n {
		return fmt.Errorf("core: checkpoint matrix %dx%d not square", n, c.Matrix.Cols())
	}
	if len(c.PrevArgmax) != n {
		return fmt.Errorf("core: checkpoint argmax length %d for %d tasks", len(c.PrevArgmax), n)
	}
	if len(c.Best) != n || !c.Best.IsPermutation() {
		return fmt.Errorf("core: checkpoint incumbent %v invalid", c.Best)
	}
	if c.StableRuns < 0 || c.Iterations < 0 {
		return fmt.Errorf("core: negative checkpoint counters")
	}
	return nil
}

// restore loads the checkpoint into a fresh problem.
func (pr *problem) restore(c *Checkpoint) error {
	if c.Matrix.Rows() != pr.n {
		return fmt.Errorf("core: checkpoint for %d tasks applied to %d-task problem", c.Matrix.Rows(), pr.n)
	}
	pr.p = c.Matrix.Clone()
	pr.alias.Rebuild(pr.p)
	copy(pr.prevArgmax, c.PrevArgmax)
	pr.stableRuns = c.StableRuns
	pr.iter = c.Iterations
	if pr.snapshotEvery > 0 {
		pr.snapshots[0] = Snapshot{Iter: c.Iterations, Matrix: pr.p.Clone()}
	}
	return nil
}

// Resume continues a checkpointed MaTCH run under the given options. The
// returned Result reflects only the new iterations' effort counters, but
// its Mapping/Exec incorporate the checkpoint's incumbent (the result
// can only be at least as good as the checkpoint).
func Resume(eval *cost.Evaluator, c *Checkpoint, opts Options) (*Result, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	n := eval.NumTasks()
	if n != eval.NumResources() || c.Matrix.Rows() != n {
		return nil, fmt.Errorf("core: checkpoint/problem shape mismatch (%d tasks, %d resources, matrix %d)",
			n, eval.NumResources(), c.Matrix.Rows())
	}
	opts = opts.withDefaults(n)
	opts.WarmStart = nil // the checkpoint matrix IS the initialisation
	if opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil {
		// Checkpoints exported mid-resume must carry the best incumbent
		// across the whole chain, not just the new iterations — the same
		// merge Resume applies to its final Result below.
		inner := opts.OnCheckpoint
		opts.OnCheckpoint = func(ck *Checkpoint) {
			if c.BestExec < ck.BestExec {
				ck.BestExec = c.BestExec
				ck.Best = c.Best.Clone()
			}
			inner(ck)
		}
	}
	res, err := solveFromProblem(eval, opts, func(pr *problem) error { return pr.restore(c) })
	if err != nil {
		return nil, err
	}
	if c.BestExec < res.Exec {
		res.Exec = c.BestExec
		copy(res.Mapping, c.Best)
	}
	return res, nil
}
