package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"matchsim/internal/gen"
	"matchsim/internal/graph"
)

// Workload kinds: library workloads call matchsim in-process; the others
// drive real matchd processes over HTTP.
const (
	kindLibrary = "library"
	kindServe   = "serve"
	kindCluster = "cluster"
)

// workload is one set of inputs the benchmark runs. Every field is
// recorded in the result's provenance.
type workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Why  string `json:"why"`

	// Generator is the instance generator and its configuration.
	Generator string `json:"generator"`

	// MaxIterations caps every solve, so each instance of a size does
	// close to the same work and run-to-run spread stays small; the
	// solver's own eq. 12 stop stays armed below the cap.
	MaxIterations int `json:"max_iterations"`

	// Library workloads: one closed-loop caller solving distinct
	// instances of N tasks back to back.
	N          int     `json:"n,omitempty"`
	Multilevel bool    `json:"multilevel,omitempty"`
	MinCoarse  int     `json:"min_coarse,omitempty"`
	SparseEps  float64 `json:"sparse_eps,omitempty"`

	// Service workloads: one open-loop stage per entry of Rates, lasting
	// its StageShares of the window; then, when Callers > 0, a closed-loop
	// stage in which that many back-to-back callers run CallerJobs jobs.
	// The closed loop keeps the daemon saturated to measure its capacity
	// while holding at most Callers jobs in its queue; a fixed job count
	// keeps the daemon's memory, which grows with jobs served, comparable
	// between runs. At four spans a job, CallerJobs must stay within
	// matchd's default ring of 4096 finished spans for a traced run to
	// find every span of the stage. Each stage's fresh jobs take the sizes in Sizes in
	// exact SizeWeights proportions, in seeded random order.
	Rates       []float64 `json:"rates_rps,omitempty"`
	StageShares []float64 `json:"stage_shares,omitempty"`
	Callers     int       `json:"callers,omitempty"`
	CallerJobs  int       `json:"caller_jobs,omitempty"`
	Sizes       []int     `json:"sizes,omitempty"`
	SizeWeights []float64 `json:"size_weights,omitempty"`
	// LatencyStage and ThroughputStage index the stages whose jobs give
	// the latency metrics and the throughput.
	LatencyStage    int `json:"latency_stage"`
	ThroughputStage int `json:"throughput_stage"`
	// RepeatFrac of submissions resubmit an earlier one (cluster only).
	RepeatFrac float64       `json:"repeat_frac,omitempty"`
	Poll       time.Duration `json:"poll_ns,omitempty"`
	SLO        time.Duration `json:"slo_ns,omitempty"`
}

// workloads is the benchmark's fixed workload set; BENCHMARK.json names
// the same four. serve-ladder was calibrated on a 2-core box: both
// open-loop stages meet the SLO, and its saturation stage (about 240
// jobs/s there) takes about 4 s.
var workloads = []workload{
	{
		Name: "solve-dense48", Kind: kindLibrary,
		Why:       "kernel (GenPerm draw + eq. 2 score) and CE phases do nearly all the work; no jobs, http or cluster",
		Generator: "gen.PaperInstance(DefaultPaperConfig)",
		N:         48, MaxIterations: 60,
	},
	{
		Name: "multilevel-sparse1k", Kind: kindLibrary,
		Why:       "graph coarsening, cost.RefineSwaps and sparse-row stochmat updates; the dense kernel runs only at the coarse n",
		Generator: "gen.LargeInstance(LargeConfig{})",
		N:         1024, MaxIterations: 40, Multilevel: true, MinCoarse: 64, SparseEps: 1e-4,
	},
	{
		Name: "serve-ladder", Kind: kindServe,
		Why:       "queueing in jobs and httpapi cost as utilisation rises; every job is unique, so no cache is hit",
		Generator: "gen.PaperInstance(DefaultPaperConfig)",
		Rates:     []float64{10, 20}, StageShares: []float64{0.2, 0.5}, Callers: 8, CallerJobs: 1000,
		Sizes: []int{8, 12, 16}, SizeWeights: []float64{1, 2, 5}, MaxIterations: 20,
		LatencyStage: 1, ThroughputStage: 2,
		Poll: 25 * time.Millisecond, SLO: time.Second,
	},
	{
		Name: "cluster-repeat", Kind: kindCluster,
		Why:       "coordinator hop (routing, poll loop, singleflight, LRU) sets latency; half the submissions repeat, so the caches are read",
		Generator: "gen.PaperInstance(DefaultPaperConfig)",
		Rates:     []float64{8}, StageShares: []float64{1},
		Sizes: []int{8, 12, 16}, SizeWeights: []float64{1, 1, 1}, MaxIterations: 20,
		RepeatFrac: 0.5,
		Poll:       25 * time.Millisecond, SLO: time.Second,
	},
}

// smoke shrinks a workload to a seconds-long check of the same code
// paths — small instances, 2 s stages — and returns it with its window.
func (w workload) smoke() (workload, time.Duration) {
	switch w.Kind {
	case kindLibrary:
		if w.Multilevel {
			w.N, w.MinCoarse, w.MaxIterations = 96, 16, 8
		} else {
			w.N, w.MaxIterations = 12, 20
		}
		return w, 2 * time.Second
	default:
		w.Sizes = []int{8, 12}
		w.SizeWeights = []float64{1, 1}
		stages := len(w.StageShares)
		w.StageShares = make([]float64, stages)
		for i := range w.StageShares {
			w.StageShares[i] = 1 / float64(stages)
		}
		if w.Callers > 0 {
			w.CallerJobs = 40
		}
		return w, time.Duration(stages) * 2 * time.Second
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// input is one generated instance: the JSON document the program
// receives, and the graphs the benchmark checks its answers against.
type input struct {
	N    int
	Seed uint64
	Doc  []byte
	Inst *graph.Instance
}

// makeInput generates instance i of the workload's generator from the
// workload seed; the same (seed, i, n) always gives the same document.
func (w workload) makeInput(seed uint64, i, n int) (input, error) {
	s := splitmix(seed, uint64(i))
	var (
		inst *graph.Instance
		err  error
	)
	if w.Multilevel {
		inst, err = gen.LargeInstance(s, n, gen.LargeConfig{})
	} else {
		inst, err = gen.PaperInstance(s, n, gen.DefaultPaperConfig())
	}
	if err != nil {
		return input{}, err
	}
	var buf bytes.Buffer
	if err := graph.WriteInstance(&buf, inst); err != nil {
		return input{}, err
	}
	return input{N: n, Seed: s, Doc: buf.Bytes(), Inst: inst}, nil
}

// arrival is one scheduled submission of a service workload.
type arrival struct {
	At    time.Duration // offset from the start of the run
	Stage int
	N     int
	// RepeatOf is the index of the earlier arrival this one resubmits
	// unchanged, or -1 for a fresh submission.
	RepeatOf int
}

// schedule draws the arrivals of a service workload. Open-loop stage st
// receives exactly round(rate*length) arrivals at uniformly random times
// — a Poisson process conditioned on its count, so the offered load is
// the same on every seed. Repeats are chosen next, then each stage's
// fresh arrivals get their sizes. The saturation stage's CallerJobs
// arrivals come last; their times are unused.
func (w workload) schedule(seed uint64, window time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var out []arrival
	var begin time.Duration
	for st, rate := range w.Rates {
		length := time.Duration(w.StageShares[st] * float64(window))
		count := int(math.Round(rate * length.Seconds()))
		offs := make([]time.Duration, count)
		for i := range offs {
			offs[i] = time.Duration(rng.Int64N(int64(length)))
		}
		sort.Slice(offs, func(a, b int) bool { return offs[a] < offs[b] })
		for _, off := range offs {
			out = append(out, arrival{At: begin + off, Stage: st, RepeatOf: -1})
		}
		begin += length
	}
	if w.RepeatFrac > 0 {
		w.markRepeats(rng, out)
	}
	for st := range w.Rates {
		var fresh []int
		for i, a := range out {
			if a.Stage == st && a.RepeatOf < 0 {
				fresh = append(fresh, i)
			}
		}
		for k, n := range w.sizeSequence(rng, len(fresh)) {
			out[fresh[k]].N = n
		}
	}
	for i := range out {
		if j := out[i].RepeatOf; j >= 0 {
			out[i].N = out[j].N
		}
	}
	if w.Callers > 0 {
		for _, n := range w.sizeSequence(rng, w.CallerJobs) {
			out = append(out, arrival{Stage: len(w.Rates), N: n, RepeatOf: -1})
		}
	}
	return out
}

// openArrivals is how many of arr belong to the open-loop stages.
func (w workload) openArrivals(arr []arrival) int {
	n := 0
	for n < len(arr) && arr[n].Stage < len(w.Rates) {
		n++
	}
	return n
}

// sizeSequence returns count job sizes in the SizeWeights proportions
// (largest remainder), shuffled: every run sees the same mix, so a
// percentile never drifts across the boundary between two sizes.
func (w workload) sizeSequence(rng *rand.Rand, count int) []int {
	var total float64
	for _, x := range w.SizeWeights {
		total += x
	}
	out := make([]int, 0, count)
	rems := make([]float64, len(w.Sizes))
	for i, x := range w.SizeWeights {
		exact := x / total * float64(count)
		for k := 0; k < int(exact); k++ {
			out = append(out, w.Sizes[i])
		}
		rems[i] = exact - math.Floor(exact)
	}
	for len(out) < count {
		best := 0
		for i := range rems {
			if rems[i] > rems[best] {
				best = i
			}
		}
		out = append(out, w.Sizes[best])
		rems[best] = -1
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// Repeat windows. A repeat sent 20-150 ms after its original lands while
// the coordinator still holds the original's flight open (it learns of
// completion only at its first 200 ms poll), so it collapses onto the
// flight. One sent 1.5 s or more later finds the finished result in the
// coordinator's cache.
const (
	flightRepeatMin = 20 * time.Millisecond
	flightRepeatMax = 150 * time.Millisecond
	cacheRepeatMin  = 1500 * time.Millisecond
)

// markRepeats turns RepeatFrac of the arrivals into resubmissions of an
// earlier fresh arrival, half aimed at an in-flight original and half at a
// finished one. An arrival with no suitable original stays fresh.
func (w workload) markRepeats(rng *rand.Rand, arr []arrival) {
	for i := range arr {
		if rng.Float64() >= w.RepeatFrac {
			continue
		}
		wantFlight := rng.IntN(2) == 0
		var candidates []int
		for j := i - 1; j >= 0; j-- {
			gap := arr[i].At - arr[j].At
			if arr[j].RepeatOf >= 0 {
				continue
			}
			if wantFlight && gap >= flightRepeatMin && gap <= flightRepeatMax {
				candidates = append(candidates, j)
			}
			if !wantFlight && gap >= cacheRepeatMin {
				candidates = append(candidates, j)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		arr[i].RepeatOf = candidates[rng.IntN(len(candidates))]
	}
}
