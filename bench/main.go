// Command bench is the repository's end-to-end benchmark. It runs one of
// four workloads against the system from outside — in-process calls into
// package matchsim for the library workloads, real matchd processes over
// HTTP for the service workloads — checks every answer, and prints the
// workload's metrics. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload <name|all> [-seed 2005] [-seconds 20]
//	    [-trace 0|1] [-spans FILE] [-out FILE] [-repeat K] [-smoke]
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0,
//	 "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// holding the end-to-end metrics of an untraced run (-trace 0) or the
// per-layer metrics of a traced run (-trace 1). A human-readable report
// with provenance goes to standard error. The exit status is nonzero
// when any operation failed or any answer was wrong.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the parsed command-line flags.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	spans     string
	out       string
	repeat    int
	smoke     bool
	matchd    string
	benchmark string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 2005, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measurement window of one run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.spans, "spans", "", "span JSONL written by a traced run (default .bench_out/spans-<workload>-<seed>.jsonl)")
	fs.StringVar(&o.out, "out", "", "also write the full result, with provenance, as JSON to this file")
	fs.IntVar(&o.repeat, "repeat", 0, "run each workload K times (seeds seed..seed+K-1, order alternating) and print medians and quartiles")
	fs.BoolVar(&o.smoke, "smoke", false, "seconds-long runs on small instances, to check the benchmark itself")
	fs.StringVar(&o.matchd, "matchd", ".bench_build/matchd", "matchd binary the service workloads start")
	fs.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "benchmark definition holding the metrics' regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	names := make([]string, 0, len(workloads))
	if o.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, err := findWorkload(o.workload); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	} else {
		names = append(names, o.workload)
	}
	if o.repeat > 0 || len(names) > 1 {
		return orchestrate(ctx, o, names, stdout, stderr)
	}
	return runOne(ctx, o, stdout, stderr)
}

// metricValue is one metric of the output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outputLine is the last line of standard output.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runOne(ctx context.Context, o options, stdout, stderr io.Writer) int {
	w, _ := findWorkload(o.workload)
	cfg := runConfig{Seed: o.seed, Seconds: time.Duration(o.seconds) * time.Second,
		Trace: o.trace == 1, Smoke: o.smoke, Matchd: o.matchd}
	if o.smoke {
		w, cfg.Seconds = w.smoke()
	}
	res, err := runWorkload(ctx, w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	res.report(stderr)
	if cfg.Trace {
		path := o.spans
		if path == "" {
			path = filepath.Join(".bench_out", fmt.Sprintf("spans-%s-%d.jsonl", w.Name, o.seed))
		}
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(stderr, "bench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "   spans: %d written to %s\n", len(res.spans), path)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: write result:", err)
			return 1
		}
	}
	line := outputLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue)}
	defs, values := endToEnd, res.EndToEnd
	if cfg.Trace {
		defs, values = perLayer, res.PerLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	if w.Kind == kindLibrary {
		return runLibrary(ctx, w, cfg)
	}
	return runService(ctx, w, cfg)
}

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkDef, error) {
	var def benchmarkDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	return def, json.Unmarshal(data, &def)
}

// orchestrate runs several workloads, or one workload several times,
// each run in its own child process (so each library run measures its
// own peak memory). With -repeat it prints, per workload and metric, the
// median and quartiles over the runs and flags every end-to-end metric
// whose spread — the distance between the quartiles over the median —
// exceeds its bound in BENCHMARK.json.
func orchestrate(ctx context.Context, o options, names []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var def benchmarkDef
	if o.repeat > 0 {
		if def, err = readBenchmark(o.benchmark); err != nil {
			fmt.Fprintln(stderr, "bench: read bounds:", err)
			return 1
		}
	}
	reps := max(1, o.repeat)
	values := make(map[string]map[string][]float64) // workload -> metric -> runs
	units := make(map[string]string)
	total := outputLine{Correct: true, Metrics: make(map[string]metricValue)}
	code := 0
	for k := 0; k < reps; k++ {
		order := append([]string(nil), names...)
		if k%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			seed := o.seed + uint64(k)
			args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-matchd", o.matchd}
			if o.smoke {
				args = append(args, "-smoke")
			}
			if o.spans != "" {
				args = append(args, "-spans", perRun(o.spans, name, seed))
			}
			if o.out != "" {
				args = append(args, "-out", perRun(o.out, name, seed))
			}
			line, err := runChild(ctx, exe, args, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", name, seed, err)
				code = 1
				if line == nil {
					continue
				}
			}
			total.Correct = total.Correct && line.Correct
			total.Attempted += line.Attempted
			total.Failed += line.Failed
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for m, v := range line.Metrics {
				values[name][m] = append(values[name][m], v.Value)
				units[m] = v.Unit
			}
		}
	}

	bounds := make(map[string]float64)
	for _, e := range def.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	if o.repeat > 0 {
		fmt.Fprintf(stderr, "== %d runs per workload, seeds %d..%d\n", reps, o.seed, o.seed+uint64(reps-1))
		fmt.Fprintf(stderr, "   %-20s %-32s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	}
	for _, name := range names {
		defs := endToEnd
		if o.trace == 1 {
			defs = perLayer
		}
		for _, d := range defs {
			runs := values[name][d.Name]
			if len(runs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(runs)
			total.Metrics[name+"."+d.Name] = metricValue{Value: med, Unit: units[d.Name]}
			if o.repeat == 0 {
				continue
			}
			spread := ratio(q3-q1, med)
			flag := ""
			if b, ok := bounds[d.Name]; ok && o.trace == 0 && spread > b {
				flag = "  SPREAD > BOUND"
			}
			fmt.Fprintf(stderr, "   %-20s %-32s %12.6g %12.6g %12.6g %8.4f %6.3g%s\n",
				name, d.Name, q1, med, q3, spread, bounds[d.Name], flag)
		}
	}
	if err := json.NewEncoder(stdout).Encode(total); err != nil {
		return 1
	}
	if !total.Correct || total.Failed > 0 {
		code = 1
	}
	return code
}

// perRun derives one run's file from a path given for several runs:
// dir/x.ext becomes dir/x-<workload>-<seed>.ext.
func perRun(path, workload string, seed uint64) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s-%s-%d%s", strings.TrimSuffix(path, ext), workload, seed, ext)
}

// runChild runs one benchmark invocation as a child process, passing its
// report through to stderr, and parses the output line. A child that
// printed a line but exited nonzero returns both.
func runChild(ctx context.Context, exe string, args []string, stderr io.Writer) (*outputLine, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if b := bytes.TrimSpace(sc.Bytes()); len(b) > 0 {
			last = string(b)
		}
	}
	if last == "" {
		if runErr == nil {
			runErr = errors.New("no output line")
		}
		return nil, runErr
	}
	var line outputLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("parse output line: %w", err)
	}
	return &line, runErr
}
