package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"matchsim/internal/graph"
	"matchsim/internal/verify"
)

// maxSchedLag is the generator lag beyond which a run is invalid.
const maxSchedLag = 5 * time.Millisecond

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    uint64
	Seconds time.Duration // the measurement window
	Trace   bool
	Smoke   bool
	Matchd  string // matchd binary (service workloads)
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// opRecord is one operation: a library solve or a service job.
type opRecord struct {
	Stage int
	// Sched is when the operation was due, Sent when the benchmark
	// issued it, Done when it saw the result. Latency is Done - Sched.
	Sched, Sent, Done time.Time
	// Submitted is when a service job's submission returned, Finished
	// when the front daemon reports it finished.
	Submitted, Finished time.Time
	// SolveTime is the solver's own wall time (MappingTime).
	SolveTime time.Duration
	Exec      float64
	Mapping   []int
	Greedy    float64
	// Fresh is false for a resubmission of an earlier job.
	Fresh bool
	// Failed explains an error, refusal, non-done job or failed check.
	Failed      string
	CheckFailed bool
	Traced      bool
	TraceID     string
	RootID      string
	SubmitSpan  string
	Requests    int
}

func (o *opRecord) latency() time.Duration { return o.Done.Sub(o.Sched) }
func (o *opRecord) lag() time.Duration     { return o.Sent.Sub(o.Sched) }

// failCheck marks the operation failed by a correctness check.
func (o *opRecord) failCheck(format string, args ...any) {
	o.Failed = fmt.Sprintf(format, args...)
	o.CheckFailed = true
}

// checkMapping verifies a returned mapping against the naive reference:
// it must be a permutation and its reference ET must equal the reported
// one bit for bit.
func checkMapping(inst *graph.Instance, mapping []int, exec float64) error {
	if err := verify.CheckPermutation(mapping); err != nil {
		return err
	}
	ref, err := verify.RefExec(inst.TIG, inst.Platform, mapping)
	if err != nil {
		return err
	}
	if math.Float64bits(ref) != math.Float64bits(exec) {
		return fmt.Errorf("reported ET %v, reference ET %v", exec, ref)
	}
	return nil
}

// provenance records what produced a result.
type provenance struct {
	Commit     string   `json:"commit"`
	Dirty      bool     `json:"dirty"`
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Smoke      bool     `json:"smoke"`
	Workload   workload `json:"workload"`
}

func newProvenance(w workload, cfg runConfig) provenance {
	p := provenance{Commit: "unknown", CPU: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Seed: cfg.Seed,
		Seconds: cfg.Seconds.Seconds(), Trace: cfg.Trace, Smoke: cfg.Smoke, Workload: w}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSKB reads VmHWM, the peak resident set, of a process ("self" or
// a pid) from /proc.
func peakRSSKB(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// stageReport is the SLO view of one service stage.
type stageReport struct {
	Rate       float64 `json:"rate_rps"`
	Sent       int     `json:"sent"`
	TailS      float64 `json:"tail_s"`
	TailQ      float64 `json:"tail_quantile"`
	Goodput    float64 `json:"goodput_frac"`
	Throughput float64 `json:"throughput_jobs_per_s"`
	MeetsSLO   bool    `json:"meets_slo"`
}

// result is everything one run measured.
type result struct {
	Provenance provenance         `json:"provenance"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Correct    bool               `json:"correct"`
	Failures   []string           `json:"failures,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	// Samples is the sample count behind each end-to-end metric.
	Samples  map[string]int     `json:"samples"`
	TailQ    float64            `json:"tail_quantile"`
	Stages   []stageReport      `json:"stages,omitempty"`
	RPSAtSLO float64            `json:"rps_at_slo,omitempty"`
	Goodput  float64            `json:"goodput_frac,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// SchedLagTail is the tail of how late the generator issued
	// operations; above maxSchedLag the run does not measure the system.
	SchedLagTail float64 `json:"sched_lag_tail_s"`
	// MedianPath is the mean blocking-path time per layer of the traced
	// latency-stage operations between the 40th and 60th latency
	// percentile.
	MedianPath map[string]float64 `json:"median_blocking_path_s,omitempty"`

	spans []span
}

// summarize fills the end-to-end metrics from the run's operations.
func (r *result) summarize(w workload, ops []opRecord, setup []float64, rssKB int64) {
	r.Attempted = len(ops)
	r.Correct = true
	for _, o := range ops {
		if o.Failed == "" {
			continue
		}
		r.Failed++
		r.Correct = r.Correct && !o.CheckFailed
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, o.Failed)
		}
	}

	var lat, solve, quality []float64
	for _, o := range ops {
		if o.Failed != "" || o.Stage != w.LatencyStage {
			continue
		}
		lat = append(lat, o.latency().Seconds())
		if o.Fresh {
			solve = append(solve, o.SolveTime.Seconds())
		}
	}
	for _, o := range ops {
		if o.Failed == "" && o.Fresh {
			quality = append(quality, o.Exec/o.Greedy)
		}
	}
	var lags []float64
	for _, o := range ops {
		if o.Failed == "" {
			lags = append(lags, o.lag().Seconds())
		}
	}
	r.SchedLagTail = quantile(lags, tailQuantile(len(lags)))
	r.TailQ = tailQuantile(len(lat))
	tput := throughput(ops, w.ThroughputStage)
	if w.Kind == kindLibrary {
		// A closed loop's throughput is its solve rate: the time the
		// benchmark spends generating and checking inputs between calls
		// is not the system's.
		var busy float64
		for _, x := range lat {
			busy += x
		}
		tput = ratio(float64(len(lat)), busy)
	}
	r.EndToEnd = map[string]float64{
		"setup_s":               quantile(setup, 0.5),
		"job_p50_s":             quantile(lat, 0.5),
		"job_tail_s":            quantile(lat, r.TailQ),
		"solve_p50_s":           quantile(solve, 0.5),
		"throughput_jobs_per_s": tput,
		"et_vs_greedy":          geomean(quality),
		"peak_rss_mb":           float64(rssKB) / 1024,
	}
	r.Samples = map[string]int{
		"setup_s": len(setup), "job_p50_s": len(lat), "job_tail_s": len(lat),
		"solve_p50_s": len(solve), "throughput_jobs_per_s": countStage(ops, w.ThroughputStage),
		"et_vs_greedy": len(quality), "peak_rss_mb": 1,
	}
}

// throughput is the completed operations of a stage over the time from
// its first send to its last completion.
func throughput(ops []opRecord, stage int) float64 {
	var first, last time.Time
	done := 0
	for _, o := range ops {
		if o.Stage != stage {
			continue
		}
		if first.IsZero() || o.Sent.Before(first) {
			first = o.Sent
		}
		if o.Failed != "" {
			continue
		}
		done++
		if o.Done.After(last) {
			last = o.Done
		}
	}
	if done == 0 {
		return 0
	}
	return float64(done) / last.Sub(first).Seconds()
}

func countStage(ops []opRecord, stage int) int {
	n := 0
	for _, o := range ops {
		if o.Stage == stage {
			n++
		}
	}
	return n
}

// traceSummary fills the bench-health and blocking-path metrics from the
// spans of the traced operations of the latency stage, whose
// blocking-path layer times explain its latency.
func (r *result) traceSummary(w workload, ops []opRecord, missing int) {
	type opPath struct {
		latency float64
		path    map[string]time.Duration
	}
	byTrace := spansByTrace(r.spans)
	var paths []opPath
	var untraced []float64
	for _, o := range ops {
		if o.Failed != "" || o.Stage != w.LatencyStage {
			continue
		}
		if !o.Traced {
			untraced = append(untraced, o.latency().Seconds())
			continue
		}
		paths = append(paths, opPath{o.latency().Seconds(), blockingPath(byTrace[o.TraceID], o.RootID)})
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].latency < paths[j].latency })

	m := r.PerLayer
	totals := make(map[string]time.Duration)
	var total time.Duration
	traced := make([]float64, len(paths))
	for i, p := range paths {
		traced[i] = p.latency
		for _, l := range layers {
			totals[l] += p.path[l]
			total += p.path[l]
		}
	}
	for _, l := range layers {
		m[l+".blocking_share"] = ratio(float64(totals[l]), float64(total))
	}
	m["bench.ops"] = float64(len(ops))
	m["bench.sched_lag_tail_s"] = r.SchedLagTail
	m["bench.spans_missing"] = float64(missing)
	m["bench.trace_overhead_frac"] = 0
	if len(traced) > 0 && len(untraced) > 0 {
		m["bench.trace_overhead_frac"] = quantile(traced, 0.5)/quantile(untraced, 0.5) - 1
	}

	// The median band: per-layer times of a typical operation, which
	// add up to its latency (per-layer medians would not).
	r.MedianPath = make(map[string]float64)
	band := paths[len(paths)*2/5 : len(paths)*3/5+min(1, len(paths))]
	for _, p := range band {
		for _, l := range layers {
			r.MedianPath[l] += p.path[l].Seconds() / float64(len(band))
		}
	}
}

// slo fills the per-stage SLO report of a service workload: an open-loop
// stage meets the SLO when its tail latency is within it, nothing
// failed, and completions kept up with arrivals (the queue did not grow).
// The closed-loop saturation stage, if any, reports rate 0.
func (r *result) slo(w workload, ops []opRecord) {
	okAll, all := 0, 0
	stages := len(w.Rates)
	if w.Callers > 0 {
		stages++
	}
	for st := 0; st < stages; st++ {
		rate := 0.0
		if st < len(w.Rates) {
			rate = w.Rates[st]
		}
		var lat []float64
		sent, good, failed := 0, 0, 0
		for _, o := range ops {
			if o.Stage != st {
				continue
			}
			sent++
			if o.Failed != "" {
				failed++
				continue
			}
			lat = append(lat, o.latency().Seconds())
			if o.latency() <= w.SLO {
				good++
			}
		}
		q := tailQuantile(len(lat))
		rep := stageReport{Rate: rate, Sent: sent, TailQ: q, TailS: quantile(lat, q),
			Goodput: ratio(float64(good), float64(sent)), Throughput: throughput(ops, st)}
		rep.MeetsSLO = rate > 0 && failed == 0 && rep.TailS <= w.SLO.Seconds() && rep.Throughput >= 0.9*rate
		if rep.MeetsSLO && rate > r.RPSAtSLO {
			r.RPSAtSLO = rate
		}
		r.Stages = append(r.Stages, rep)
		okAll += good
		all += sent
	}
	r.Goodput = ratio(float64(okAll), float64(all))
}

// report prints the human-readable result.
func (r *result) report(out io.Writer) {
	p := r.Provenance
	w := p.Workload
	dirty := ""
	if p.Dirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(out, "== %s  seed %d  trace %v  window %.0fs  commit %s%s\n", w.Name, p.Seed, p.Trace, p.Seconds, p.Commit, dirty)
	fmt.Fprintf(out, "   cpu %q  nproc %d  GOMAXPROCS %d  %s  smoke %v\n", p.CPU, p.NProc, p.GOMAXPROCS, p.Go, p.Smoke)
	if w.Kind == kindLibrary {
		fmt.Fprintf(out, "   %s: n=%d max_iterations=%d multilevel=%v min_coarse=%d sparse_eps=%g; closed loop, 1 caller\n",
			w.Generator, w.N, w.MaxIterations, w.Multilevel, w.MinCoarse, w.SparseEps)
	} else {
		fmt.Fprintf(out, "   %s: sizes %v weights %v max_iterations %d; open loop at %v rps for %v of the window; then %d jobs on %d closed-loop callers; poll %v; SLO %v; repeat_frac %g\n",
			w.Generator, w.Sizes, w.SizeWeights, w.MaxIterations, w.Rates, w.StageShares, w.CallerJobs, w.Callers, w.Poll, w.SLO, w.RepeatFrac)
	}
	fmt.Fprintf(out, "   attempted %d  failed %d (failed_frac %.4f)  correct %v  generator lag p%g %.2gs\n",
		r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), r.Correct,
		100*tailQuantile(r.Attempted), r.SchedLagTail)
	if r.SchedLagTail > maxSchedLag.Seconds() {
		fmt.Fprintf(out, "   WARNING: the generator ran more than %v late; this run measured the benchmark, not the system\n", maxSchedLag)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "   failure: %s\n", f)
	}
	fmt.Fprintf(out, "   end-to-end:\n")
	for _, d := range endToEnd {
		note := fmt.Sprintf("n=%d", r.Samples[d.Name])
		if d.Name == "job_tail_s" {
			note = fmt.Sprintf("p%g of n=%d", 100*r.TailQ, r.Samples[d.Name])
		}
		fmt.Fprintf(out, "     %-24s %14.6g %-6s %s\n", d.Name, r.EndToEnd[d.Name], d.Unit, note)
	}
	for i, st := range r.Stages {
		load := fmt.Sprintf("%5.1f rps", st.Rate)
		if st.Rate == 0 {
			load = fmt.Sprintf("%d callers", w.Callers)
		}
		fmt.Fprintf(out, "   stage %d: %s  sent %4d  p%g %.4fs  goodput %.3f  throughput %.2f/s  meets SLO %v\n",
			i, load, st.Sent, 100*st.TailQ, st.TailS, st.Goodput, st.Throughput, st.MeetsSLO)
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(out, "   rps_at_slo %g  goodput_frac %.3f\n", r.RPSAtSLO, r.Goodput)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Fprintf(out, "   per-layer:\n")
	for _, d := range perLayer {
		fmt.Fprintf(out, "     %-32s %14.6g %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
	}
	var names []string
	var sum float64
	for _, l := range layers {
		if r.MedianPath[l] > 0 {
			names = append(names, fmt.Sprintf("%s %.4g", l, r.MedianPath[l]))
			sum += r.MedianPath[l]
		}
	}
	fmt.Fprintf(out, "   blocking path of the median band (s): %s\n", strings.Join(names, ", "))
	fmt.Fprintf(out, "   sum %.4gs vs job_p50_s %.4gs (ratio %.3f)\n",
		sum, r.EndToEnd["job_p50_s"], ratio(sum, r.EndToEnd["job_p50_s"]))
}
