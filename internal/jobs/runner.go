package jobs

import (
	"context"

	"matchsim"
	"matchsim/api"
	"matchsim/internal/island"
)

// Hooks are the per-call inputs of a solver run that are not options:
// they never change a result, so they stay out of the content address.
type Hooks struct {
	// Context cancels the run. It must not be nil.
	Context context.Context
	// OnIteration, when non-nil, receives each CE iteration or GA
	// generation.
	OnIteration func(matchsim.IterationTrace)
	// CheckpointEvery > 0 hands OnCheckpoint a resumable checkpoint every
	// that-many iterations of a plain match run.
	CheckpointEvery int
	OnCheckpoint    func(*matchsim.Checkpoint)
	// Resume, when non-nil, continues that checkpoint instead of solving
	// fresh. Only a run the solver Resumes may carry one.
	Resume *matchsim.Checkpoint
	// Board is the island-exchange board of a daemon, which a cooperative
	// island run (IslandHosts) needs; nil outside one, where no run has
	// IslandHosts.
	Board *island.Board
}

// Solver is one entry of the solver table: how a job naming it runs, and
// whether such a run can resume from a checkpoint.
type Solver struct {
	Name string
	// Run solves p under o.
	Run func(p *matchsim.Problem, o api.SolverOptions, h Hooks) (*matchsim.Solution, error)
	// resumes reports whether a run under o resumes from a checkpoint bit
	// for bit. nil marks a solver that takes no checkpoint at all.
	resumes func(o api.SolverOptions) bool
}

// Resumes reports whether a run of s under o exports checkpoints and
// resumes from one exactly. It is false for a nil s.
func (s *Solver) Resumes(o api.SolverOptions) bool {
	return s != nil && s.resumes != nil && s.resumes(o)
}

// solvers is the one solver list: matchd and the coordinator admit, run
// and resume jobs by it, and the match command runs its -solver from it.
var solvers = []Solver{
	{Name: api.SolverMaTCH, Run: runMaTCH, resumes: func(o api.SolverOptions) bool {
		return !o.Multilevel && o.Islands <= 1
	}},
	{Name: api.SolverManyToOne, Run: func(p *matchsim.Problem, o api.SolverOptions, h Hooks) (*matchsim.Solution, error) {
		return matchsim.SolveMaTCHManyToOne(p, ceOptions(o, h))
	}},
	{Name: api.SolverGA, Run: func(p *matchsim.Problem, o api.SolverOptions, h Hooks) (*matchsim.Solution, error) {
		return matchsim.SolveGA(p, matchsim.GAOptions{
			PopulationSize: o.PopulationSize,
			Generations:    o.Generations,
			CrossoverProb:  o.CrossoverProb,
			MutationProb:   o.MutationProb,
			Workers:        o.Workers,
			Seed:           o.Seed,
			Context:        h.Context,
			OnGeneration:   h.OnIteration,
		})
	}},
	{Name: api.SolverRandom, Run: func(p *matchsim.Problem, o api.SolverOptions, h Hooks) (*matchsim.Solution, error) {
		return matchsim.SolveRandomContext(h.Context, p, orDefault(o.Budget, 10000), o.Seed)
	}},
	{Name: api.SolverGreedy, Run: func(p *matchsim.Problem, _ api.SolverOptions, _ Hooks) (*matchsim.Solution, error) {
		return matchsim.SolveGreedy(p)
	}},
	{Name: api.SolverLocal, Run: func(p *matchsim.Problem, o api.SolverOptions, h Hooks) (*matchsim.Solution, error) {
		return matchsim.SolveLocalSearchContext(h.Context, p, orDefault(o.Restarts, 5), o.Seed)
	}},
	{Name: api.SolverAnneal, Run: func(p *matchsim.Problem, o api.SolverOptions, h Hooks) (*matchsim.Solution, error) {
		return matchsim.SolveAnnealing(p, matchsim.AnnealingOptions{Steps: o.Steps, Seed: o.Seed, Context: h.Context})
	}},
}

// LookupSolver returns the table entry named name, or nil when there is
// none. The deprecated alias distributed is not an entry; Admit rewrites
// it first (CanonicalSolver).
func LookupSolver(name string) *Solver {
	for i := range solvers {
		if solvers[i].Name == name {
			return &solvers[i]
		}
	}
	return nil
}

// SolverNames lists the table's names in table order, match first.
func SolverNames() []string {
	names := make([]string, len(solvers))
	for i, s := range solvers {
		names[i] = s.Name
	}
	return names
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// ceOptions holds the CE knobs match and match-m2o share.
func ceOptions(o api.SolverOptions, h Hooks) matchsim.MaTCHOptions {
	return matchsim.MaTCHOptions{
		SampleSize:       o.SampleSize,
		Rho:              o.Rho,
		Zeta:             o.Zeta,
		StallC:           o.StallC,
		GammaStallWindow: o.GammaStallWindow,
		MaxIterations:    o.MaxIterations,
		Workers:          o.Workers,
		Seed:             o.Seed,
		Context:          h.Context,
		OnIteration:      h.OnIteration,
	}
}

// runMaTCH runs the paper's solver: plain, multilevel or as an island
// ensemble, fresh or from h.Resume.
func runMaTCH(p *matchsim.Problem, o api.SolverOptions, h Hooks) (*matchsim.Solution, error) {
	opts := ceOptions(o, h)
	opts.Polish = o.Polish
	opts.CheckpointEvery, opts.OnCheckpoint = h.CheckpointEvery, h.OnCheckpoint
	if o.Multilevel {
		opts.Multilevel = &matchsim.MultilevelOptions{
			MinCoarse:    o.MinCoarse,
			CoarsenRatio: o.CoarsenRatio,
			RefinePasses: o.RefinePasses,
		}
	}
	if o.Islands > 1 {
		iopts := &matchsim.IslandOptions{
			Count:        o.Islands,
			Topology:     o.IslandTopology,
			MigrateEvery: o.MigrateEvery,
			MigrantCount: o.MigrantCount,
			BlendAlpha:   o.BlendAlpha,
		}
		if len(o.IslandHosts) > 0 {
			// Cooperative multi-node run: this daemon solves only the
			// islands whose host entry is empty, exchanging with the
			// named peers over HTTP through the shared board.
			topo, err := island.ParseTopology(o.IslandTopology)
			if err != nil {
				return nil, err
			}
			tr, err := island.NewTransport(island.Config{
				Session:  o.IslandSession,
				Count:    o.Islands,
				Topology: topo,
				Hosts:    o.IslandHosts,
				Board:    h.Board,
			})
			if err != nil {
				return nil, err
			}
			remote := make([]bool, len(o.IslandHosts))
			for i, host := range o.IslandHosts {
				remote[i] = host != ""
			}
			iopts.Transport = tr
			iopts.Remote = remote
			defer h.Board.Drop(o.IslandSession)
		}
		opts.Islands = iopts
	}
	if h.Resume != nil {
		return matchsim.ResumeMaTCH(p, h.Resume, opts)
	}
	return matchsim.SolveMaTCH(p, opts)
}

// solve runs a job through its table entry on a pool worker, outside the
// manager lock. It also returns the run's checkpoint, so an interrupted
// job can be persisted and resumed after a restart.
func (m *Manager) solve(ctx context.Context, j *job, onIter func(matchsim.IterationTrace)) (*api.JobResult, *matchsim.Checkpoint, error) {
	h := Hooks{Context: ctx, OnIteration: onIter, Resume: j.resumeFrom, Board: m.board}
	if every := j.req.CheckpointEvery; every > 0 {
		// Periodic rescue export: keep only the newest checkpoint on the
		// job, where Manager.Checkpoint serves it to a supervising
		// coordinator. The callback runs on the solver goroutine between
		// iterations, so the lock hold is a pointer swap.
		h.CheckpointEvery = every
		h.OnCheckpoint = func(c *matchsim.Checkpoint) {
			m.mu.Lock()
			j.exported = c
			m.mu.Unlock()
		}
	}
	// Admit let the job in only under a table name.
	sol, err := LookupSolver(j.solver).Run(j.problem, j.req.Options, h)
	if err != nil {
		return nil, nil, err
	}
	return &api.JobResult{
		Mapping:     sol.Mapping,
		Exec:        sol.Exec,
		Iterations:  sol.Iterations,
		Evaluations: sol.Evaluations,
		MappingTime: sol.MappingTime,
		Solver:      sol.Solver,
		StopReason:  sol.StopReason,
	}, sol.Checkpoint(), nil
}
