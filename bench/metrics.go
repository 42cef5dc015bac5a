package main

import (
	"bufio"
	"strconv"
	"strings"

	"matchsim"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; the smoke test holds the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, measured on an
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
	{"solve_p50_s", "s"},
	{"throughput_jobs_per_s", "1/s"},
	{"et_vs_greedy", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, measured on a traced run.
// A layer a workload never reaches reports 0.
var perLayer = []metricDef{
	{"stochmat.reject_tries_per_draw", "count"},
	{"stochmat.fallbacks_per_draw", "count"},
	{"stochmat.skipped_rows_frac", "frac"},
	{"cost.pruned_frac", "frac"},
	{"cost.rescored_frac", "frac"},
	{"cost.skipped_edges_per_draw", "count"},
	{"cost.refine_share", "frac"},
	{"cost.refine_fine_share", "frac"},
	{"cost.refine_probes_per_swap", "count"},
	{"cost.blocking_share", "frac"},
	{"ce.iterations_per_solve", "count"},
	{"ce.draws_per_solve", "count"},
	{"ce.draw_ns", "ns"},
	{"ce.sample_s", "s"},
	{"ce.select_s", "s"},
	{"ce.update_s", "s"},
	{"ce.steal_units_per_iter", "count"},
	{"ce.idle_frac", "frac"},
	{"ce.blocking_share", "frac"},
	{"graph.levels", "count"},
	{"graph.coarsen_share", "frac"},
	{"graph.blocking_share", "frac"},
	{"core.solve_s", "s"},
	{"core.self_s", "s"},
	{"core.blocking_share", "frac"},
	{"jobs.queue_wait_share", "frac"},
	{"jobs.queue_depth_max", "count"},
	{"jobs.cache_hit_frac", "frac"},
	{"jobs.blocking_share", "frac"},
	{"httpapi.requests_per_job", "count"},
	{"httpapi.error_frac", "frac"},
	{"httpapi.blocking_share", "frac"},
	{"cluster.singleflight_hits", "count"},
	{"cluster.cache_hit_frac", "frac"},
	{"cluster.route_imbalance", "ratio"},
	{"cluster.handoffs", "count"},
	{"cluster.blocking_share", "frac"},
	{"bench.ops", "count"},
	{"bench.sched_lag_tail_s", "s"},
	{"bench.spans_missing", "count"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.blocking_share", "frac"},
}

// newPerLayer returns every per-layer metric at zero, the value of a
// layer the workload never reaches.
func newPerLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// solverCounters accumulates solver telemetry over the solves of a run.
// Nanosecond fields are summed wall times.
type solverCounters struct {
	solves, iterations, draws, pruned, rescored float64
	rejectTries, fallbackDraws, skippedEdges    float64
	rebuiltRows, skippedRows, stealUnits        float64
	sampleNs, selectNs, updateNs, idleNs        float64
	workers                                     float64 // sampling workers per solve
	mappingNs, levels, coarsenNs, refineNs      float64
	refineFineNs, refineProbes, refineSwaps     float64
}

// addIteration is the single adapter from the solver's per-iteration
// telemetry; a change to the iteration event schema touches only here.
func (c *solverCounters) addIteration(tr matchsim.IterationTrace) {
	c.iterations++
	c.draws += float64(tr.Draws)
	c.pruned += float64(tr.Pruned)
	c.rescored += float64(tr.Rescored)
	c.rejectTries += float64(tr.RejectTries)
	c.fallbackDraws += float64(tr.FallbackDraws)
	c.skippedEdges += float64(tr.SkippedEdges)
	c.rebuiltRows += float64(tr.RebuiltRows)
	c.skippedRows += float64(tr.SkippedRows)
	c.stealUnits += float64(tr.StealUnits)
	c.sampleNs += float64(tr.SampleNs)
	c.selectNs += float64(tr.SelectNs)
	c.updateNs += float64(tr.UpdateNs)
	c.idleNs += float64(tr.IdleNs)
}

// addSolution records one solve's wall time and multilevel ladder.
func (c *solverCounters) addSolution(sol *matchsim.Solution) {
	c.solves++
	c.mappingNs += float64(sol.MappingTime)
	c.levels += float64(max(1, len(sol.Levels)))
	for i, lv := range sol.Levels {
		c.coarsenNs += float64(lv.CoarsenNs)
		c.refineNs += float64(lv.RefineNs)
		c.refineProbes += float64(lv.RefineProbes)
		c.refineSwaps += float64(lv.RefineSwaps)
		if i == 0 {
			c.refineFineNs += float64(lv.RefineNs)
		}
	}
}

// addScrape takes the solver counters a daemon exports on /metrics (the
// difference between two scrapes), for solves the benchmark cannot
// observe in-process.
func (c *solverCounters) addScrape(d scrape) {
	c.iterations += d.sum("matchd_solver_iterations_total")
	c.draws += d.sum("matchd_solver_draws_total")
	c.pruned += d.sum("matchd_solver_pruned_draws_total")
	c.rescored += d.sum("matchd_solver_rescored_draws_total")
	c.rejectTries += d.sum("matchd_solver_reject_tries_total")
	c.fallbackDraws += d.sum("matchd_solver_fallback_draws_total")
	c.skippedEdges += d.sum("matchd_solver_skipped_edges_total")
	c.rebuiltRows += d.sum("matchd_solver_rebuilt_rows_total")
	c.skippedRows += d.sum("matchd_solver_skipped_rows_total")
	c.stealUnits += d.sum("matchd_solver_steal_units_total")
	c.sampleNs += 1e9 * d.sum("matchd_solver_sample_phase_seconds_sum")
	c.selectNs += 1e9 * d.sum("matchd_solver_select_phase_seconds_sum")
	c.updateNs += 1e9 * d.sum("matchd_solver_update_phase_seconds_sum")
	c.idleNs += 1e9 * d.sum("matchd_solver_idle_seconds_total")
}

// layerMetrics derives the solver-side per-layer metrics.
func (c *solverCounters) layerMetrics(m map[string]float64) {
	phaseNs := c.sampleNs + c.selectNs + c.updateNs
	m["stochmat.reject_tries_per_draw"] = ratio(c.rejectTries, c.draws)
	m["stochmat.fallbacks_per_draw"] = ratio(c.fallbackDraws, c.draws)
	m["stochmat.skipped_rows_frac"] = ratio(c.skippedRows, c.rebuiltRows+c.skippedRows)
	m["cost.pruned_frac"] = ratio(c.pruned, c.draws)
	m["cost.rescored_frac"] = ratio(c.rescored, c.pruned)
	m["cost.skipped_edges_per_draw"] = ratio(c.skippedEdges, c.draws)
	m["cost.refine_share"] = ratio(c.refineNs, c.mappingNs)
	m["cost.refine_fine_share"] = ratio(c.refineFineNs, c.mappingNs)
	m["cost.refine_probes_per_swap"] = ratio(c.refineProbes, c.refineSwaps)
	m["ce.iterations_per_solve"] = ratio(c.iterations, c.solves)
	m["ce.draws_per_solve"] = ratio(c.draws, c.solves)
	m["ce.draw_ns"] = ratio(c.sampleNs*c.workers, c.draws)
	m["ce.sample_s"] = ratio(c.sampleNs, c.solves) / 1e9
	m["ce.select_s"] = ratio(c.selectNs, c.solves) / 1e9
	m["ce.update_s"] = ratio(c.updateNs, c.solves) / 1e9
	m["ce.steal_units_per_iter"] = ratio(c.stealUnits, c.iterations)
	m["ce.idle_frac"] = ratio(c.idleNs, c.sampleNs*c.workers)
	m["graph.levels"] = ratio(c.levels, c.solves)
	m["graph.coarsen_share"] = ratio(c.coarsenNs, c.mappingNs)
	m["core.solve_s"] = ratio(c.mappingNs, c.solves) / 1e9
	m["core.self_s"] = ratio(c.mappingNs-phaseNs-c.coarsenNs-c.refineNs, c.solves) / 1e9
}

// scrape is one Prometheus text exposition: series (name plus label set)
// to value.
type scrape map[string]float64

func parseScrape(text string) scrape {
	out := make(scrape)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// minus returns the per-series difference s - before.
func (s scrape) minus(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// add folds another scrape into s (summing, e.g., two workers).
func (s scrape) add(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}

// sum totals every series of the named metric.
func (s scrape) sum(name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// byLabel totals the named metric per value of one label.
func (s scrape) byLabel(name, label string) map[string]float64 {
	out := make(map[string]float64)
	key := label + `="`
	for k, v := range s {
		if !strings.HasPrefix(k, name+"{") {
			continue
		}
		i := strings.Index(k, key)
		if i < 0 {
			continue
		}
		rest := k[i+len(key):]
		if j := strings.IndexByte(rest, '"'); j >= 0 {
			out[rest[:j]] += v
		}
	}
	return out
}
