// Overset-grid CFD scenario: the workload class the paper's introduction
// motivates. A synthetic 3-D body is covered by overlapping component
// grids (the overset-grid method used for viscous-drag estimation); the
// overlap structure becomes the Task Interaction Graph, which is then
// mapped onto a heterogeneous 24-node computational grid with MaTCH and
// with every baseline in the repository.
//
// Run with:
//
//	go run ./examples/overset
package main

import (
	"fmt"
	"log"
	"time"

	"matchsim"
)

func main() {
	const grids = 24

	problem, err := matchsim.GenerateOverset(7, matchsim.OversetConfig{
		NumGrids: grids,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overset system: %d component grids on a %d-resource platform\n\n",
		problem.NumTasks(), problem.NumResources())

	type entry struct {
		name  string
		solve func() (*matchsim.Solution, error)
	}
	solvers := []entry{
		{"MaTCH (CE heuristic)", func() (*matchsim.Solution, error) {
			return matchsim.SolveMaTCH(problem, matchsim.MaTCHOptions{Seed: 1})
		}},
		{"FastMap-GA 500/1000", func() (*matchsim.Solution, error) {
			return matchsim.SolveGA(problem, matchsim.GAOptions{Seed: 1})
		}},
		{"Random search (50k draws)", func() (*matchsim.Solution, error) {
			return matchsim.SolveRandom(problem, 50000, 1)
		}},
		{"Greedy construction", func() (*matchsim.Solution, error) {
			return matchsim.SolveGreedy(problem)
		}},
		{"2-swap local search (x10)", func() (*matchsim.Solution, error) {
			return matchsim.SolveLocalSearch(problem, 10, 1)
		}},
		{"Simulated annealing", func() (*matchsim.Solution, error) {
			return matchsim.SolveAnnealing(problem, matchsim.AnnealingOptions{Seed: 1})
		}},
	}

	fmt.Printf("%-30s %12s %12s %12s\n", "solver", "ET (units)", "MT", "evals")
	fmt.Println("----------------------------------------------------------------------")
	best, bestName := 0.0, ""
	for _, s := range solvers {
		sol, err := s.solve()
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		fmt.Printf("%-30s %12.0f %12v %12d\n",
			s.name, sol.Exec, sol.MappingTime.Round(time.Millisecond), sol.Evaluations)
		if bestName == "" || sol.Exec < best {
			best, bestName = sol.Exec, s.name
		}
	}
	fmt.Printf("\nbest mapping: %s (ET = %.0f units)\n", bestName, best)
}
