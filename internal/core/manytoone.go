package core

import (
	"fmt"

	"matchsim/internal/cost"
)

// ManyToOne runs the generalised MaTCH for |Vt| != |Vr| — the extension
// the paper sketches as "a few simple modifications of the algorithm(s)".
// It is the same CE problem as Solve with one change, the draw rule:
// without the bijection constraint there is no column masking, and each
// task's resource is drawn independently from its own row of the
// |Vt| x |Vr| stochastic matrix — the naive generation scheme of Section 4
// (eq. 8). Elite selection, the eq. (11) update, eq. (13) smoothing and
// the eq. (12) stop are unchanged. The default sample size keeps the
// paper's scaling rule on the matrix size, N = 2|Vt||Vr|, and a warm start
// may be any valid mapping.
//
// Polish, checkpoint export, Multilevel and Islands are ignored, and
// CheckpointFrom returns nil for the result: those extensions assume a
// bijective mapping.
//
// This mode also covers clustering workflows where many tasks share a
// resource, as in the FastMap scheme MaTCH descends from.
func ManyToOne(eval *cost.Evaluator, opts Options) (*Result, error) {
	tasks, resources := eval.NumTasks(), eval.NumResources()
	if tasks < 1 || resources < 1 {
		return nil, fmt.Errorf("core: empty problem (%d tasks, %d resources)", tasks, resources)
	}
	if opts.SampleSize == 0 {
		opts.SampleSize = 2 * tasks * resources
	}
	opts = opts.withDefaults(tasks)
	opts.Polish, opts.CheckpointEvery = false, 0
	return solveFromProblem(eval, opts, false, nil)
}
