package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"matchsim"
)

// setupInput is the input index reserved for set-up solves, apart from
// the measured inputs 0, 1, 2, ...
const setupInput = 1 << 30

// setupIterations caps the warm-up solve of each set-up repetition, so
// set-up does a fixed amount of solver work.
const setupIterations = 5

func (w workload) libraryOptions(seed uint64, workers int) matchsim.MaTCHOptions {
	o := matchsim.MaTCHOptions{Seed: seed, Workers: workers, MaxIterations: w.MaxIterations, SparseEps: w.SparseEps}
	if w.Multilevel {
		o.Multilevel = &matchsim.MultilevelOptions{MinCoarse: w.MinCoarse}
	}
	return o
}

// iterSample is one solver iteration with the time its telemetry arrived
// (the end of its update phase).
type iterSample struct {
	at time.Time
	tr matchsim.IterationTrace
}

// runLibrary runs a closed loop of one caller: load an instance document,
// solve it, check the answer, repeat until the window has elapsed. Only
// the solve call is timed. On a traced run every other solve also reports
// per-iteration telemetry, from which its spans are rebuilt; the others
// give the untraced latency for the tracing-overhead estimate.
func runLibrary(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	workers := runtime.GOMAXPROCS(0)
	res := &result{Provenance: newProvenance(w, cfg)}

	// Set-up: load the set-up instance and run a short warm-up solve,
	// setupReps times.
	warm, err := w.makeInput(cfg.Seed, setupInput, w.N)
	if err != nil {
		return nil, err
	}
	var setup []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		p, err := matchsim.ReadProblem(bytes.NewReader(warm.Doc))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o := w.libraryOptions(warm.Seed, workers)
		o.MaxIterations = setupIterations
		if _, err := matchsim.SolveMaTCH(p, o); err != nil {
			return nil, fmt.Errorf("set-up solve: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	counters := solverCounters{workers: float64(workers)}
	missing := 0
	var ops []opRecord
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.Seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in, err := w.makeInput(cfg.Seed, i, w.N)
		if err != nil {
			return nil, err
		}
		p, err := matchsim.ReadProblem(bytes.NewReader(in.Doc))
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		op := opRecord{Fresh: true, Traced: cfg.Trace && i%2 == 0}
		o := w.libraryOptions(in.Seed, workers)
		var iters []iterSample
		if op.Traced {
			o.OnIteration = func(tr matchsim.IterationTrace) {
				iters = append(iters, iterSample{at: time.Now(), tr: tr})
			}
		}
		op.Sched = time.Now()
		op.Sent = time.Now()
		sol, err := matchsim.SolveMaTCH(p, o)
		op.Done = time.Now()
		if err != nil {
			op.Failed = "solve: " + err.Error()
			ops = append(ops, op)
			continue
		}
		op.SolveTime, op.Exec, op.Mapping = sol.MappingTime, sol.Exec, sol.Mapping
		if err := checkMapping(in.Inst, sol.Mapping, sol.Exec); err != nil {
			op.failCheck("input %d: %v", i, err)
		}
		g, err := matchsim.SolveGreedy(p)
		if err != nil {
			return nil, fmt.Errorf("greedy baseline: %w", err)
		}
		op.Greedy = g.Exec
		if op.Traced {
			counters.addSolution(sol)
			for _, it := range iters {
				counters.addIteration(it.tr)
			}
			missing += abs(sol.Iterations - len(iters))
			spans := librarySpans(&op, sol, iters)
			res.spans = append(res.spans, spans...)
		}
		ops = append(ops, op)
	}

	rss, err := peakRSSKB("self")
	if err != nil {
		return nil, err
	}
	res.summarize(w, ops, setup, rss)
	if cfg.Trace {
		res.PerLayer = newPerLayer()
		counters.layerMetrics(res.PerLayer)
		res.traceSummary(w, ops, missing)
	}
	return res, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// librarySpans rebuilds the span tree of one traced solve: the benchmark's
// call, the solver's own wall time inside it, each CE iteration (ending
// when its telemetry arrived), and for multilevel runs the coarsening and
// refinement of every level. Levels report durations only, so coarsening
// is laid out from the start of the solve and refinement back from its
// end, in the order the solver runs them.
func librarySpans(op *opRecord, sol *matchsim.Solution, iters []iterSample) []span {
	tid := newTraceID()
	root := newSpan(tid, "", "bench.solve", benchNodeName, layerBench, op.Sent, op.Done)
	coreStart := op.Done.Add(-sol.MappingTime)
	core := newSpan(tid, root.SpanID, "core.solve", benchNodeName, layerCore, coreStart, op.Done)
	core.Attrs = map[string]string{"stop_reason": sol.StopReason, "iterations": strconv.Itoa(sol.Iterations)}
	op.TraceID, op.RootID = tid, root.SpanID
	out := []span{root, core}
	for _, it := range iters {
		d := time.Duration(it.tr.SampleNs + it.tr.SelectNs + it.tr.UpdateNs)
		s := newSpan(tid, core.SpanID, "ce.iteration", benchNodeName, layerCE, it.at.Add(-d), it.at)
		s.Attrs = map[string]string{
			"i":         strconv.Itoa(it.tr.Iteration),
			"draws":     strconv.Itoa(it.tr.Draws),
			"sample_ns": strconv.FormatInt(it.tr.SampleNs, 10),
			"select_ns": strconv.FormatInt(it.tr.SelectNs, 10),
			"update_ns": strconv.FormatInt(it.tr.UpdateNs, 10),
		}
		out = append(out, s)
	}
	t := coreStart
	for i, lv := range sol.Levels {
		if lv.CoarsenNs == 0 {
			continue
		}
		end := t.Add(time.Duration(lv.CoarsenNs))
		s := newSpan(tid, core.SpanID, "graph.coarsen", benchNodeName, layerGraph, t, end)
		s.Attrs = map[string]string{"level": strconv.Itoa(i), "tasks": strconv.Itoa(lv.Tasks)}
		out = append(out, s)
		t = end
	}
	t = op.Done
	for i, lv := range sol.Levels {
		if lv.RefineNs == 0 {
			continue
		}
		begin := t.Add(-time.Duration(lv.RefineNs))
		s := newSpan(tid, core.SpanID, "cost.refine", benchNodeName, layerCost, begin, t)
		s.Attrs = map[string]string{"level": strconv.Itoa(i), "swaps": strconv.Itoa(lv.RefineSwaps)}
		out = append(out, s)
		t = begin
	}
	return out
}
