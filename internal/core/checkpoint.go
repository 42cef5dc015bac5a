package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"matchsim/internal/ce"
	"matchsim/internal/cost"
	"matchsim/internal/stochmat"
)

// CheckpointVersion is the checkpoint format Encode writes. Version 2
// carries the whole CE loop state, so a resume is bit-identical to the
// uninterrupted run. Documents without a version predate it: they decode,
// but Resume rejects them.
const CheckpointVersion = 2

// Checkpoint captures a MaTCH run's resumable state: the stochastic
// matrix, the eq. 12 stability bookkeeping, the CE loop's iteration index
// and gamma-stall window, and the incumbent mapping. Long mapping jobs
// (the paper reports runs of tens of minutes on its hardware) can be
// stopped and resumed without changing their result.
type Checkpoint struct {
	// Version is the format version (CheckpointVersion; 0 when absent).
	Version int `json:"version"`
	// Iterations completed when the checkpoint was taken.
	Iterations int `json:"iterations"`
	// Gamma is gamma_k of the last completed iteration and GammaStallRuns
	// the Fig. 2 stall counter (see ce.State).
	Gamma          float64 `json:"gamma"`
	GammaStallRuns int     `json:"gamma_stall_runs"`
	// Matrix is the current sampling distribution P_k.
	Matrix *stochmat.Matrix `json:"matrix"`
	// PrevArgmax and StableRuns carry the eq. 12 stop state.
	PrevArgmax []int `json:"prev_argmax"`
	StableRuns int   `json:"stable_runs"`
	// Best and BestExec are the incumbent solution.
	Best     cost.Mapping `json:"best"`
	BestExec float64      `json:"best_exec"`
}

// newCheckpoint snapshots the problem state (P_k and the eq. 12 window)
// together with the CE loop state st that pairs with it. Everything is
// cloned.
func newCheckpoint(p *stochmat.Matrix, argmax []int, stableRuns int, st ce.State[[]int]) *Checkpoint {
	return &Checkpoint{
		Version:        CheckpointVersion,
		Iterations:     st.Iterations,
		Gamma:          st.Gamma,
		GammaStallRuns: st.GammaStallRuns,
		Matrix:         p.Clone(),
		PrevArgmax:     slices.Clone(argmax),
		StableRuns:     stableRuns,
		Best:           slices.Clone(st.Best),
		BestExec:       st.BestScore,
	}
}

// CheckpointFrom extracts a resumable checkpoint from a finished (or
// interrupted) run's Result. The incumbent is the CE loop's, before any
// Polish pass, so resuming reproduces the uninterrupted run. Multilevel
// and island results carry no fine-size CE state and return nil: they are
// not resumable.
func CheckpointFrom(res *Result) *Checkpoint {
	if res.FinalMatrix == nil || res.loop.Best == nil {
		return nil
	}
	return newCheckpoint(res.FinalMatrix, res.finalArgmax, res.finalStableRuns, res.loop)
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
	if c.StableRuns < 0 || c.Iterations < 0 || c.GammaStallRuns < 0 {
		return fmt.Errorf("core: negative checkpoint counters")
	}
	if math.IsInf(c.Gamma, 0) || math.IsNaN(c.Gamma) {
		return fmt.Errorf("core: checkpoint gamma %v not finite", c.Gamma)
	}
	return nil
}

// Verify checks that c can resume a run on eval: the shapes match, and
// the incumbent's recorded score is the one eval computes for it, bit for
// bit. A checkpoint from outside cannot smuggle in a score its mapping
// does not have.
func (c *Checkpoint) Verify(eval *cost.Evaluator) error {
	if err := c.validate(); err != nil {
		return err
	}
	n := eval.NumTasks()
	if n != eval.NumResources() || c.Matrix.Rows() != n {
		return fmt.Errorf("core: checkpoint/problem shape mismatch (%d tasks, %d resources, matrix %d)",
			n, eval.NumResources(), c.Matrix.Rows())
	}
	if exec := eval.Exec(c.Best); math.Float64bits(exec) != math.Float64bits(c.BestExec) {
		return fmt.Errorf("core: checkpoint incumbent evaluates to %v, not its recorded best_exec %v", exec, c.BestExec)
	}
	return nil
}

// restore loads the checkpoint into a fresh problem.
func (pr *problem) restore(c *Checkpoint) {
	pr.p = c.Matrix.Clone()
	pr.alias.Rebuild(pr.p)
	copy(pr.prevArgmax, c.PrevArgmax)
	pr.stableRuns = c.StableRuns
	pr.iter = c.Iterations
	if pr.snapshotEvery > 0 {
		pr.snapshots[0] = Snapshot{Iter: c.Iterations, Matrix: pr.p.Clone()}
	}
}

// Resume continues a checkpointed MaTCH run on eval. Under the options of
// the run that wrote the checkpoint (Workers may differ) the result is
// bit-identical to that run left uninterrupted: the CE loop continues at
// iteration Iterations+1 with its stall window and incumbent,
// opts.MaxIterations caps the whole chain, and the Result's Iterations
// and Evaluations count it; History holds the new iterations only.
// Checkpoints older than CheckpointVersion lack that state and are
// rejected, as are multilevel and island options, whose state no
// checkpoint captures.
func Resume(eval *cost.Evaluator, c *Checkpoint, opts Options) (*Result, error) {
	if err := c.Verify(eval); err != nil {
		return nil, err
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d cannot resume exactly (want %d); solve fresh instead", c.Version, CheckpointVersion)
	}
	if opts.Multilevel != nil || (opts.Islands != nil && opts.Islands.Count > 1) {
		return nil, fmt.Errorf("core: multilevel and island runs cannot resume from a checkpoint")
	}
	opts = opts.withDefaults(eval.NumTasks())
	opts.WarmStart = nil // the checkpoint matrix IS the initialisation
	start := ce.State[[]int]{
		Iterations:     c.Iterations,
		Gamma:          c.Gamma,
		GammaStallRuns: c.GammaStallRuns,
		Best:           c.Best,
		BestScore:      c.BestExec,
	}
	return solveFromProblem(eval, opts, start, func(pr *problem) error {
		pr.restore(c)
		return nil
	})
}
