package jobs

import (
	"context"
	"fmt"

	"matchsim"
	"matchsim/api"
	"matchsim/internal/island"
)

// solve dispatches a job to the matchsim solver named in its request. It
// runs outside the manager lock on a pool worker. For the MaTCH solver it
// additionally returns the run's checkpoint so an interrupted job can be
// persisted and resumed after a restart.
func (m *Manager) solve(ctx context.Context, j *job, onIter func(matchsim.IterationTrace)) (*api.JobResult, *matchsim.Checkpoint, error) {
	o := j.req.Options
	var (
		sol *matchsim.Solution
		err error
	)
	switch j.solver {
	case api.SolverMaTCH:
		opts := matchsim.MaTCHOptions{
			SampleSize:       o.SampleSize,
			Rho:              o.Rho,
			Zeta:             o.Zeta,
			StallC:           o.StallC,
			GammaStallWindow: o.GammaStallWindow,
			MaxIterations:    o.MaxIterations,
			Workers:          o.Workers,
			Seed:             o.Seed,
			Polish:           o.Polish,
			Context:          ctx,
			OnIteration:      onIter,
		}
		if every := j.req.CheckpointEvery; every > 0 {
			// Periodic rescue export: keep only the newest checkpoint on
			// the job, where Manager.Checkpoint serves it to a supervising
			// coordinator. The callback runs on the solver goroutine
			// between iterations, so the lock hold is a pointer swap.
			opts.CheckpointEvery = every
			opts.OnCheckpoint = func(c *matchsim.Checkpoint) {
				m.mu.Lock()
				j.exported = c
				m.mu.Unlock()
			}
		}
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
				topo, terr := island.ParseTopology(o.IslandTopology)
				if terr != nil {
					return nil, nil, terr
				}
				tr, terr := island.NewTransport(island.Config{
					Session:  o.IslandSession,
					Count:    o.Islands,
					Topology: topo,
					Hosts:    o.IslandHosts,
					Board:    m.board,
				})
				if terr != nil {
					return nil, nil, terr
				}
				remote := make([]bool, len(o.IslandHosts))
				for i, h := range o.IslandHosts {
					remote[i] = h != ""
				}
				iopts.Transport = tr
				iopts.Remote = remote
				defer m.board.Drop(o.IslandSession)
			}
			opts.Islands = iopts
		}
		if j.resumeFrom != nil {
			sol, err = matchsim.ResumeMaTCH(j.problem, j.resumeFrom, opts)
		} else {
			sol, err = matchsim.SolveMaTCH(j.problem, opts)
		}
	case api.SolverManyToOne:
		sol, err = matchsim.SolveMaTCHManyToOne(j.problem, matchsim.MaTCHOptions{
			SampleSize:       o.SampleSize,
			Rho:              o.Rho,
			Zeta:             o.Zeta,
			StallC:           o.StallC,
			GammaStallWindow: o.GammaStallWindow,
			MaxIterations:    o.MaxIterations,
			Workers:          o.Workers,
			Seed:             o.Seed,
			Context:          ctx,
			OnIteration:      onIter,
		})
	case api.SolverGA:
		sol, err = matchsim.SolveGA(j.problem, matchsim.GAOptions{
			PopulationSize: o.PopulationSize,
			Generations:    o.Generations,
			CrossoverProb:  o.CrossoverProb,
			MutationProb:   o.MutationProb,
			Workers:        o.Workers,
			Seed:           o.Seed,
			Context:        ctx,
			OnGeneration:   onIter,
		})
	case api.SolverDistributed:
		sol, err = matchsim.SolveDistributed(j.problem, matchsim.DistributedOptions{
			NumAgents:     o.NumAgents,
			SampleSize:    o.SampleSize,
			Rho:           o.Rho,
			Zeta:          o.Zeta,
			StallC:        o.StallC,
			MaxIterations: o.MaxIterations,
			Seed:          o.Seed,
			Context:       ctx,
		})
	case api.SolverRandom:
		budget := o.Budget
		if budget <= 0 {
			budget = 10000
		}
		sol, err = matchsim.SolveRandomContext(ctx, j.problem, budget, o.Seed)
	case api.SolverGreedy:
		sol, err = matchsim.SolveGreedy(j.problem)
	case api.SolverLocal:
		restarts := o.Restarts
		if restarts <= 0 {
			restarts = 5
		}
		sol, err = matchsim.SolveLocalSearchContext(ctx, j.problem, restarts, o.Seed)
	case api.SolverAnneal:
		sol, err = matchsim.SolveAnnealing(j.problem, matchsim.AnnealingOptions{
			Steps:   o.Steps,
			Seed:    o.Seed,
			Context: ctx,
		})
	default:
		return nil, nil, fmt.Errorf("jobs: unknown solver %q", j.solver)
	}
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
