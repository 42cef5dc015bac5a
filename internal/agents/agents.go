// Package agents implements the paper's stated future work: "extending
// MaTCH into a fully distributed implementation using agent based
// scheduling" (Section 6, motivated by CE-guided mobile agents in
// telecommunication routing).
//
// The design partitions ownership of the stochastic matrix by rows: agent
// a owns the rows (tasks) of its block and is the only party that updates
// them. One iteration of the distributed protocol:
//
//  1. The coordinator broadcasts the assembled global matrix to every
//     agent (in a real deployment this is the gossip/state-exchange
//     round; here it is a channel send of an immutable snapshot).
//  2. Each agent independently draws its share of the N GenPerm samples
//     from the snapshot, scores them against its local copy of the cost
//     model, and sends (sample, score) batches back.
//  3. The coordinator merges all batches, selects the global elite by the
//     rho-quantile, and broadcasts the elite set.
//  4. Each agent re-estimates its own row block from the elite (eq. 11),
//     applies smoothing (eq. 13), and sends the updated rows to the
//     coordinator, which assembles the next global matrix and checks the
//     eq. 12 stopping rule.
//
// All communication is by message passing over channels — no shared
// mutable state — so the package doubles as a executable specification of
// the wire protocol a networked implementation would need.
package agents

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"matchsim/internal/cost"
	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// Options tunes the distributed run. Zero values take MaTCH defaults.
type Options struct {
	// NumAgents is the number of concurrent agents; default
	// min(GOMAXPROCS, n). Each agent owns a contiguous block of rows.
	NumAgents int
	// SampleSize is the global N per iteration; default 2*n^2.
	SampleSize int
	// Rho is the focus parameter; default 0.05.
	Rho float64
	// Zeta is the smoothing factor; default 0.3.
	Zeta float64
	// StallC is the eq. 12 stability constant; default 5.
	StallC int
	// MaxIterations caps the protocol rounds; default 1000.
	MaxIterations int
	// Seed fixes the run (per-agent streams are split from it).
	Seed uint64
	// Context, when non-nil, cancels the protocol at round granularity.
	// If at least one round completed, Solve returns the incumbent with
	// Cancelled set; otherwise it returns the context's error.
	Context context.Context
}

func (o Options) withDefaults(n int) Options {
	if o.NumAgents == 0 {
		o.NumAgents = runtime.GOMAXPROCS(0)
	}
	if o.NumAgents > n {
		o.NumAgents = n
	}
	if o.SampleSize == 0 {
		o.SampleSize = 2 * n * n
	}
	if o.Rho == 0 {
		o.Rho = 0.05
	}
	if o.Zeta == 0 {
		o.Zeta = 0.3
	}
	if o.StallC == 0 {
		o.StallC = 5
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 1000
	}
	return o
}

// Result mirrors core.Result for the distributed solver.
type Result struct {
	Mapping     cost.Mapping
	Exec        float64
	Iterations  int
	Evaluations int64
	MappingTime time.Duration
	// Rounds counts protocol message rounds (4 per iteration).
	Rounds int
	// NumAgents echoes the effective agent count.
	NumAgents int
	// Cancelled reports that Options.Context ended the protocol early.
	Cancelled bool
}

// sampleBatch is the agent -> coordinator message of step 2.
type sampleBatch struct {
	agent    int
	mappings [][]int
	scores   []float64
}

// rowUpdate is the agent -> coordinator message of step 4.
type rowUpdate struct {
	agent   int
	rowLo   int
	rows    [][]float64 // updated, already smoothed rows
	maxCols []int       // per-row argmax, for the eq. 12 check
}

// iterationCmd is the coordinator -> agent broadcast of steps 1 and 3.
type iterationCmd struct {
	// matrix is the immutable snapshot agents sample from, and alias its
	// alias table. The coordinator builds the table: Rebuild assigns the
	// matrix's lazy identity, which is not goroutine-safe, so agents only
	// ever read it.
	matrix *stochmat.Matrix
	alias  *stochmat.AliasTable
	// elite carries the elite set in the second phase of the round.
	elite [][]int
	// quota is how many samples this agent must draw.
	quota int
	// stop terminates the agent goroutine.
	stop bool
}

// Solve runs the distributed agent-based MaTCH protocol.
func Solve(eval *cost.Evaluator, opts Options) (*Result, error) {
	n := eval.NumTasks()
	if n < 1 {
		return nil, fmt.Errorf("agents: empty task set")
	}
	if eval.NumResources() != n {
		return nil, fmt.Errorf("agents: distributed MaTCH requires |Vt| = |Vr| (got %d tasks, %d resources)", n, eval.NumResources())
	}
	opts = opts.withDefaults(n)
	if opts.Rho <= 0 || opts.Rho > 0.5 {
		return nil, fmt.Errorf("agents: focus parameter rho=%v outside (0, 0.5]", opts.Rho)
	}
	if opts.Zeta <= 0 || opts.Zeta > 1 {
		return nil, fmt.Errorf("agents: smoothing factor zeta=%v outside (0, 1]", opts.Zeta)
	}

	start := time.Now()
	root := xrand.New(opts.Seed)

	// Row ownership: agent a owns rows [blockLo[a], blockLo[a+1]).
	blockLo := make([]int, opts.NumAgents+1)
	for a := 0; a <= opts.NumAgents; a++ {
		blockLo[a] = a * n / opts.NumAgents
	}

	cmdCh := make([]chan iterationCmd, opts.NumAgents)
	sampleCh := make(chan sampleBatch, opts.NumAgents)
	updateCh := make(chan rowUpdate, opts.NumAgents)
	var wg sync.WaitGroup
	for a := 0; a < opts.NumAgents; a++ {
		cmdCh[a] = make(chan iterationCmd, 1)
		wg.Add(1)
		go agentLoop(agentConfig{
			id:      a,
			rowLo:   blockLo[a],
			rowHi:   blockLo[a+1],
			n:       n,
			eval:    eval,
			rng:     root.Split(),
			zeta:    opts.Zeta,
			cmds:    cmdCh[a],
			samples: sampleCh,
			updates: updateCh,
			done:    &wg,
		})
	}
	defer func() {
		for a := range cmdCh {
			cmdCh[a] <- iterationCmd{stop: true}
		}
		wg.Wait()
	}()

	matrix := stochmat.NewUniform(n, n)
	eliteCount := int(opts.Rho * float64(opts.SampleSize))
	if eliteCount < 1 {
		eliteCount = 1
	}

	res := &Result{NumAgents: opts.NumAgents, Exec: -1}
	best := make(cost.Mapping, n)
	prevArgmax := make([]int, n)
	for i := range prevArgmax {
		prevArgmax[i] = -1
	}
	stableRuns := 0

	allMappings := make([][]int, 0, opts.SampleSize)
	allScores := make([]float64, 0, opts.SampleSize)
	order := make([]int, 0, opts.SampleSize)

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	for iter := 1; iter <= opts.MaxIterations; iter++ {
		if ctx.Err() != nil {
			if res.Iterations == 0 {
				return nil, ctx.Err()
			}
			res.Cancelled = true
			break
		}
		// Step 1: broadcast snapshot + sampling quotas.
		snapshot := matrix.Clone()
		alias := stochmat.NewAliasTable(snapshot)
		perAgent := opts.SampleSize / opts.NumAgents
		extra := opts.SampleSize % opts.NumAgents
		for a := 0; a < opts.NumAgents; a++ {
			quota := perAgent
			if a < extra {
				quota++
			}
			cmdCh[a] <- iterationCmd{matrix: snapshot, alias: alias, quota: quota}
		}
		res.Rounds++

		// Step 2: gather sample batches. Batches arrive in arbitrary
		// channel order; re-assemble them in agent order so the run is
		// deterministic (ties in elite selection break by sample index).
		batches := make([]sampleBatch, opts.NumAgents)
		for a := 0; a < opts.NumAgents; a++ {
			batch := <-sampleCh
			batches[batch.agent] = batch
		}
		allMappings = allMappings[:0]
		allScores = allScores[:0]
		for _, batch := range batches {
			allMappings = append(allMappings, batch.mappings...)
			allScores = append(allScores, batch.scores...)
		}
		res.Rounds++
		res.Evaluations += int64(len(allScores))
		if len(allScores) == 0 {
			return nil, fmt.Errorf("agents: iteration %d produced no samples", iter)
		}

		// Global elite selection (coordinator-side, plain code).
		order = order[:0]
		for i := range allScores {
			order = append(order, i)
		}
		sortByScore(order, allScores)
		if allScores[order[0]] < res.Exec || res.Exec < 0 {
			res.Exec = allScores[order[0]]
			copy(best, allMappings[order[0]])
		}
		take := eliteCount
		if take > len(order) {
			take = len(order)
		}
		elite := make([][]int, take)
		for i := 0; i < take; i++ {
			elite[i] = allMappings[order[i]]
		}

		// Step 3: broadcast the elite.
		for a := 0; a < opts.NumAgents; a++ {
			cmdCh[a] <- iterationCmd{elite: elite}
		}
		res.Rounds++

		// Step 4: gather row updates, assemble the next matrix, check
		// the eq. 12 stop.
		stable := true
		for a := 0; a < opts.NumAgents; a++ {
			up := <-updateCh
			for i, row := range up.rows {
				task := up.rowLo + i
				if err := matrix.SetRow(task, row); err != nil {
					return nil, fmt.Errorf("agents: assembling row %d: %w", task, err)
				}
				if up.maxCols[i] != prevArgmax[task] {
					stable = false
					prevArgmax[task] = up.maxCols[i]
				}
			}
		}
		res.Rounds++
		res.Iterations = iter
		if stable {
			stableRuns++
			if stableRuns >= opts.StallC {
				break
			}
		} else {
			stableRuns = 0
		}
	}

	res.Mapping = best.Clone()
	res.MappingTime = time.Since(start)
	if !res.Mapping.IsPermutation() {
		return nil, fmt.Errorf("agents: internal error — result is not a permutation: %v", res.Mapping)
	}
	return res, nil
}

// sortByScore sorts idx ascending by scores[idx], breaking ties by index
// for determinism.
func sortByScore(idx []int, scores []float64) {
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] < scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
}

type agentConfig struct {
	id           int
	rowLo, rowHi int
	n            int
	eval         *cost.Evaluator
	rng          *xrand.RNG
	zeta         float64
	cmds         chan iterationCmd
	samples      chan<- sampleBatch
	updates      chan<- rowUpdate
	done         *sync.WaitGroup
}

// agentLoop is one agent goroutine: it alternates sample and update
// phases until told to stop. The agent's persistent state is its row
// block of the stochastic matrix (its share of P).
func agentLoop(cfg agentConfig) {
	defer cfg.done.Done()
	nRows := cfg.rowHi - cfg.rowLo
	myRows := make([][]float64, nRows)
	for i := range myRows {
		myRows[i] = make([]float64, cfg.n)
		for j := range myRows[i] {
			myRows[i][j] = 1 / float64(cfg.n)
		}
	}
	sampler := stochmat.NewSampler(cfg.n)
	scratch := make([]float64, cfg.eval.NumResources())
	counts := make([][]float64, nRows)
	for i := range counts {
		counts[i] = make([]float64, cfg.n)
	}
	maxCols := make([]int, nRows)

	for cmd := range cfg.cmds {
		switch {
		case cmd.stop:
			return
		case cmd.matrix != nil:
			// Sampling phase.
			batch := sampleBatch{agent: cfg.id}
			for k := 0; k < cmd.quota; k++ {
				m := make([]int, cfg.n)
				if err := sampler.SamplePermutation(cmd.matrix, cmd.alias, cfg.rng, m); err != nil {
					// A sampling failure is unrecoverable protocol-wise;
					// deliver an empty batch and let the coordinator's
					// quantile handle the shortfall.
					break
				}
				batch.mappings = append(batch.mappings, m)
				batch.scores = append(batch.scores, cfg.eval.ExecInto(m, scratch))
			}
			cfg.samples <- batch
		case cmd.elite != nil:
			// Update phase: eq. 11 restricted to the owned rows, then
			// eq. 13 smoothing against the agent's persistent row state.
			inv := 1 / float64(len(cmd.elite))
			for i := range counts {
				for j := range counts[i] {
					counts[i][j] = 0
				}
			}
			for _, m := range cmd.elite {
				for i := 0; i < nRows; i++ {
					counts[i][m[cfg.rowLo+i]] += inv
				}
			}
			up := rowUpdate{agent: cfg.id, rowLo: cfg.rowLo, rows: make([][]float64, nRows), maxCols: maxCols}
			for i := 0; i < nRows; i++ {
				row := myRows[i]
				bestJ, bestP := 0, -1.0
				for j := range row {
					row[j] = float64(cfg.zeta*counts[i][j]) + float64((1-cfg.zeta)*row[j])
					if row[j] > bestP {
						bestP, bestJ = row[j], j
					}
				}
				up.rows[i] = append([]float64(nil), row...)
				maxCols[i] = bestJ
			}
			cfg.updates <- up
		}
	}
}
