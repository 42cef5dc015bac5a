package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"matchsim/internal/ce"
	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// benchRecord is one row of a BENCH_<name>.json artefact: a named
// measurement with whatever subset of the fields applies. Sweep rows carry
// (size, solver, ET, ns/op); kernel rows carry (ns/op, bytes/op,
// allocs/op).
type benchRecord struct {
	Name        string  `json:"name"`
	Size        int     `json:"size,omitempty"`
	Solver      string  `json:"solver,omitempty"`
	ET          float64 `json:"et_units,omitempty"`
	NsPerOp     int64   `json:"ns_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Iterations and ReachedTarget are set by the island time-to-target
	// study: iterations consumed, and whether the arm met the
	// single-island reference ET (NsPerOp is then the time to reach it).
	Iterations    int  `json:"iterations,omitempty"`
	ReachedTarget bool `json:"reached_target,omitempty"`
}

// benchFile is the BENCH_<name>.json document.
type benchFile struct {
	Bench   string        `json:"bench"`
	GoOS    string        `json:"goos"`
	GoArch  string        `json:"goarch"`
	Go      string        `json:"go"`
	Records []benchRecord `json:"records"`
}

// writeBenchJSON writes BENCH_<name>.json in the working directory.
func writeBenchJSON(name string, records []benchRecord) error {
	doc := benchFile{
		Bench:   name,
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
		Go:      runtime.Version(),
		Records: records,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := "BENCH_" + name + ".json"
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// kernelBench is one micro-benchmark of the CE hot path.
type kernelBench struct {
	name string
	fn   func(b *testing.B)
}

// runKernel benchmarks the hot-path kernels — the alias-table GenPerm
// draw, its table rebuild, the draw scored by Evaluator.ExecInto, elite
// selection and the 2-swap delta — plus an end-to-end Solve at n=64,
// printing a table and — with -json — writing the micro records to
// BENCH_kernel.json. baselineNs, when non-zero, is a reference ns/op
// (e.g. an earlier end-to-end measurement) printed beside the end-to-end
// Solve with the speedup against it.
func runKernel(seed uint64, quick, jsonOut bool, baselineNs int64, quiet bool, compare string) error {
	const n = 64
	inst, err := gen.PaperInstance(seed, n, gen.DefaultPaperConfig())
	if err != nil {
		return err
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		return err
	}
	uniform := stochmat.NewUniform(n, n)
	alias := stochmat.NewAliasTable(uniform)

	micro := []kernelBench{
		{"genperm-fast-alias", func(b *testing.B) {
			b.ReportAllocs()
			s := stochmat.NewSampler(n)
			rng := xrand.New(1)
			dst := make([]int, n)
			for i := 0; i < b.N; i++ {
				if err := s.SamplePermutation(uniform, alias, rng, dst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"alias-rebuild", func(b *testing.B) {
			b.ReportAllocs()
			at := stochmat.NewAliasTable(uniform)
			for i := 0; i < b.N; i++ {
				at.Rebuild(uniform)
			}
		}},
		{"sample-then-exec", func(b *testing.B) {
			// One production CE draw: sample a permutation, then score it
			// with one edge-list sweep.
			b.ReportAllocs()
			s := stochmat.NewSampler(n)
			rng := xrand.New(1)
			dst := make([]int, n)
			scratch := make([]float64, n)
			var sink float64
			for i := 0; i < b.N; i++ {
				if err := s.SamplePermutation(uniform, alias, rng, dst); err != nil {
					b.Fatal(err)
				}
				sink = eval.ExecInto(cost.Mapping(dst), scratch)
			}
			_ = sink
		}},
		{"elite-quickselect", func(b *testing.B) {
			b.ReportAllocs()
			benchEliteSelect(b, true)
		}},
		{"elite-full-sort", func(b *testing.B) {
			b.ReportAllocs()
			benchEliteSelect(b, false)
		}},
		{"exec-after-swap", func(b *testing.B) {
			b.ReportAllocs()
			rng := xrand.New(3)
			m := make(cost.Mapping, n)
			for i := range m {
				m[i] = i
			}
			rng.ShuffleInts(m)
			st, err := cost.NewState(eval, m)
			if err != nil {
				b.Fatal(err)
			}
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = st.ExecAfterSwap(rng.Intn(n), rng.Intn(n))
			}
			_ = sink
		}},
	}

	// Min-of-reps per kernel: a single testing.Benchmark pass on a noisy
	// shared core can land 30%+ high (frequency ramps, page faults),
	// which would trip the -compare regression gate spuriously. The
	// committed artefact and the CI measurement must use the same
	// estimator for the 25% tolerance to mean anything.
	const microReps = 3
	var kernelRecs []benchRecord
	for _, kb := range micro {
		res := testing.Benchmark(kb.fn)
		for r := 1; r < microReps; r++ {
			if rr := testing.Benchmark(kb.fn); rr.NsPerOp() < res.NsPerOp() {
				res = rr
			}
		}
		kernelRecs = append(kernelRecs, benchRecord{
			Name:        kb.name,
			Size:        n,
			NsPerOp:     res.NsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		})
		if !quiet {
			fmt.Fprintf(os.Stderr, "kernel %-20s %12d ns/op %8d B/op %6d allocs/op\n",
				kb.name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp())
		}
	}

	if compare != "" {
		// Regression-guard mode: check the micro measurements against the
		// committed baseline and stop — the end-to-end solves are too
		// noisy for a hard CI gate and the guard must not rewrite the
		// artefacts it compares against.
		return compareKernel(kernelRecs, compare, quiet)
	}

	iters := 120
	if quick {
		iters = 20
	}
	bench := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(eval, core.Options{Seed: uint64(i), MaxIterations: iters}); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Same min-of-reps estimator as the micros: the first full solve in a
	// fresh process otherwise absorbs warmup costs.
	res := testing.Benchmark(bench)
	for r := 1; r < microReps; r++ {
		if rr := testing.Benchmark(bench); rr.NsPerOp() < res.NsPerOp() {
			res = rr
		}
	}
	solveRec := benchRecord{
		Name:        "solve",
		Size:        n,
		Solver:      "MaTCH",
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	solveRecs := []benchRecord{solveRec}
	if !quiet {
		fmt.Fprintf(os.Stderr, "solve  %-20s %12d ns/op (n=%d, %d iters)\n",
			solveRec.Name, res.NsPerOp(), n, iters)
	}
	if baselineNs > 0 {
		solveRecs = append(solveRecs, benchRecord{
			Name: "solve-baseline", Size: n, Solver: "MaTCH", NsPerOp: baselineNs,
		})
	}

	fmt.Printf("%-22s %14s %10s %8s\n", "benchmark", "ns/op", "B/op", "allocs")
	for _, r := range append(append([]benchRecord{}, kernelRecs...), solveRecs...) {
		fmt.Printf("%-22s %14d %10d %8d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	if baselineNs > 0 {
		fmt.Printf("solve speedup vs baseline: %.2fx\n", float64(baselineNs)/float64(res.NsPerOp()))
	}

	if jsonOut {
		return writeBenchJSON("kernel", kernelRecs)
	}
	return nil
}

// benchEliteSelect measures elite extraction from a CE-iteration-sized
// score vector (N = 2n^2 at n=64), either by quickselect (the production
// path) or a full sort of the candidate order.
func benchEliteSelect(b *testing.B, quickselect bool) {
	const sampleN = 2 * 64 * 64
	k := sampleN / 20
	rng := xrand.New(5)
	base := make([]float64, sampleN)
	for i := range base {
		base[i] = rng.Float64() * 1000
	}
	scores := make([]float64, sampleN)
	order := make([]int, sampleN)
	for i := 0; i < b.N; i++ {
		copy(scores, base)
		for j := range order {
			order[j] = j
		}
		if quickselect {
			ce.SelectElite(order, scores, k, true)
		} else {
			sort.Slice(order, func(a, c int) bool {
				sa, sc := scores[order[a]], scores[order[c]]
				if sa != sc {
					return sa < sc
				}
				return order[a] < order[c]
			})
		}
	}
}
