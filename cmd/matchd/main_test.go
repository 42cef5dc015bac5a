package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/client"
)

// buildDaemon compiles the matchd binary into a temp dir once per test
// run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "matchd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building matchd: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the binary and returns its base URL, parsed from
// the "listening on" line, plus the running process.
func startDaemon(t *testing.T, bin string, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	return startDaemonUntil(t, bin, "listening on ", extraArgs...)
}

// startDaemonUntil launches the binary and returns the running process
// and the rest of the first stdout line after marker.
func startDaemonUntil(t *testing.T, bin, marker string, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting matchd: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	urlCh := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			line := scanner.Text()
			if i := strings.Index(line, marker); i >= 0 {
				urlCh <- strings.TrimSpace(line[i+len(marker):])
			}
		}
	}()
	select {
	case base := <-urlCh:
		return cmd, base
	case <-time.After(30 * time.Second):
		t.Fatalf("matchd never printed %q", marker)
		return nil, ""
	}
}

// TestPprofBothModes: -pprof serves the profiler in worker mode and in
// coordinator mode alike.
func TestPprofBothModes(t *testing.T) {
	bin := buildDaemon(t)
	_, worker := startDaemon(t, bin)
	for _, mode := range [][]string{nil, {"-coordinator", "-workers", worker}} {
		args := append([]string{"-pprof", "127.0.0.1:0"}, mode...)
		_, url := startDaemonUntil(t, bin, `msg="pprof enabled" url=`, args...)
		resp, err := http.Get(url + "cmdline")
		if err != nil {
			t.Fatalf("%v: GET pprof: %v", mode, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: pprof answered %d", mode, resp.StatusCode)
		}
	}
}

// TestEndToEndSmoke is the CI smoke: build matchd, start it, submit an
// n=16 MaTCH job through the client, poll it to completion, and assert
// the result is bit-identical to a direct library solve with the same
// seed and worker count.
func TestEndToEndSmoke(t *testing.T) {
	bin := buildDaemon(t)
	cmd, base := startDaemon(t, bin)
	ctx := context.Background()
	c := client.New(base)

	p, err := matchsim.GeneratePaper(2026, 16)
	if err != nil {
		t.Fatalf("GeneratePaper: %v", err)
	}
	var inst bytes.Buffer
	if err := p.WriteInstance(&inst); err != nil {
		t.Fatalf("WriteInstance: %v", err)
	}

	opts := api.SolverOptions{Seed: 7, Workers: 2}
	info, err := c.Submit(ctx, api.SubmitRequest{Instance: inst.Bytes(), Solver: api.SolverMaTCH, Options: opts})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	final, err := c.Wait(waitCtx, info.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != api.StateDone {
		t.Fatalf("job ended %q (error %q), want done", final.State, final.Error)
	}
	res, err := c.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	direct, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 7, Workers: 2})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	if res.Exec != direct.Exec {
		t.Errorf("service exec %v != direct exec %v", res.Exec, direct.Exec)
	}
	if !reflect.DeepEqual(res.Mapping, direct.Mapping) {
		t.Errorf("service mapping %v != direct mapping %v", res.Mapping, direct.Mapping)
	}

	// Identical resubmission must be a cache hit answered as done.
	again, err := c.Submit(ctx, api.SubmitRequest{Instance: inst.Bytes(), Solver: api.SolverMaTCH, Options: opts})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.State != api.StateDone || !again.CacheHit {
		t.Errorf("resubmission state=%q cacheHit=%v, want done cache hit", again.State, again.CacheHit)
	}

	// The solve must have fed the telemetry registry: scrape /metrics and
	// assert the solver-internals counters moved.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, name := range []string{
		"matchd_solver_iterations_total",
		"matchd_solver_draws_total",
		"matchd_solves_total",
	} {
		v, found := scrapeValue(metrics, name)
		if !found {
			t.Errorf("metrics missing %s:\n%s", name, metrics)
		} else if v <= 0 {
			t.Errorf("%s = %v, want > 0 after a solve", name, v)
		}
	}

	// Distributed tracing: the submission rooted a trace, and the
	// retained span tree must cover the job's whole lifecycle —
	// submit (request span) -> job -> queue + solve, with the terminal
	// result recorded as an event on the job span.
	if info.TraceID == "" {
		t.Fatal("submission carried no trace ID")
	}
	doc, err := c.Trace(ctx, info.TraceID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	reqSpan := findSpanNamed(doc.Spans, "POST /v1/jobs")
	if reqSpan == nil {
		t.Fatalf("trace %s has no request span: %+v", info.TraceID, doc)
	}
	jobSpan := findSpanNamed(reqSpan.Children, "job")
	if jobSpan == nil {
		t.Fatalf("job span not parented under the request span: %+v", doc)
	}
	for _, name := range []string{"queue", "solve"} {
		if findSpanNamed(jobSpan.Children, name) == nil {
			t.Errorf("job span missing %q child", name)
		}
	}
	var sawResult bool
	for _, ev := range jobSpan.Events {
		sawResult = sawResult || ev.Name == "result"
	}
	if !sawResult {
		t.Error("job span carries no result event")
	}
	// Span accounting: with every job terminal, nothing may leak.
	metrics, err = c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if open, found := scrapeValue(metrics, "matchd_trace_spans_open"); !found {
		t.Error("metrics missing matchd_trace_spans_open")
	} else if open != 0 {
		t.Errorf("matchd_trace_spans_open = %v, want 0 once jobs are terminal", open)
	}

	// Graceful termination.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("matchd exited uncleanly after SIGTERM: %v", err)
	}
}

// findSpanNamed walks a span tree depth-first for the first span with
// the given name.
func findSpanNamed(spans []api.Span, name string) *api.Span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if hit := findSpanNamed(spans[i].Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// flattenSpans collects a span tree into a flat list.
func flattenSpans(spans []api.Span) []api.Span {
	var out []api.Span
	for _, sp := range spans {
		out = append(out, sp)
		out = append(out, flattenSpans(sp.Children)...)
	}
	return out
}

// TestTwoDaemonIslandSolve is the cooperative island smoke: two matchd
// processes each solve half of one I=4 ensemble, exchanging elite
// migrants and P-row blends over the /v1/islands HTTP transport, and
// both must report a result bit-identical to the same ensemble run
// in-process over the in-memory transport. Gated by MATCH_E2E_ISLANDS=1
// (CI runs it under -race); the interesting properties — cross-process
// rendezvous, HTTP JSON float64 round-trips, the global-best reduction
// agreeing on every node — need real sockets, not httptest.
func TestTwoDaemonIslandSolve(t *testing.T) {
	if os.Getenv("MATCH_E2E_ISLANDS") == "" {
		t.Skip("set MATCH_E2E_ISLANDS=1 to run the two-daemon island smoke")
	}
	bin := buildDaemon(t)
	_, baseA := startDaemon(t, bin, "-node", "nodeA")
	_, baseB := startDaemon(t, bin, "-node", "nodeB")
	ctx := context.Background()
	cA, cB := client.New(baseA), client.New(baseB)

	p, err := matchsim.GeneratePaper(11, 20)
	if err != nil {
		t.Fatalf("GeneratePaper: %v", err)
	}
	var inst bytes.Buffer
	if err := p.WriteInstance(&inst); err != nil {
		t.Fatalf("WriteInstance: %v", err)
	}

	// The in-memory reference: the identical ensemble inside one process.
	direct, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{
		Seed: 7, Workers: 1, MaxIterations: 40,
		Islands: &matchsim.IslandOptions{
			Count: 4, Topology: "ring", MigrateEvery: 5, MigrantCount: 2, BlendAlpha: 0.2,
		},
	})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}

	// Each daemon solves two of the four islands; the hosts vector tells
	// it where the others live. Both jobs share the session name.
	submit := func(c *client.Client, hosts []string) api.JobInfo {
		t.Helper()
		info, err := c.Submit(ctx, api.SubmitRequest{
			Instance: inst.Bytes(), Solver: api.SolverMaTCH,
			Options: api.SolverOptions{
				Seed: 7, Workers: 1, MaxIterations: 40,
				Islands: 4, IslandTopology: "ring", MigrateEvery: 5,
				MigrantCount: 2, BlendAlpha: 0.2,
				IslandSession: "e2e-island-smoke", IslandHosts: hosts,
			},
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return info
	}
	infoA := submit(cA, []string{"", "", baseB, baseB})
	infoB := submit(cB, []string{baseA, baseA, "", ""})

	waitCtx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	results := make([]api.JobResult, 2)
	for i, pair := range []struct {
		c  *client.Client
		id string
	}{{cA, infoA.ID}, {cB, infoB.ID}} {
		final, err := pair.c.Wait(waitCtx, pair.id, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("Wait node %d: %v", i, err)
		}
		if final.State != api.StateDone {
			t.Fatalf("node %d job ended %q (error %q), want done", i, final.State, final.Error)
		}
		res, err := pair.c.Result(ctx, pair.id)
		if err != nil {
			t.Fatalf("Result node %d: %v", i, err)
		}
		results[i] = res
	}

	for i, res := range results {
		if res.Exec != direct.Exec {
			t.Errorf("node %d exec %v != in-memory ensemble exec %v", i, res.Exec, direct.Exec)
		}
		if !reflect.DeepEqual(res.Mapping, direct.Mapping) {
			t.Errorf("node %d mapping %v != in-memory ensemble mapping %v", i, res.Mapping, direct.Mapping)
		}
	}

	// Distributed tracing: node A's job rooted a trace, its exchange
	// spans hang under the solve span, and — because each exchange post
	// carries its traceparent — node B holds server spans under the SAME
	// trace ID, parented by A's exchange spans. One trace covers both
	// daemons.
	if infoA.TraceID == "" {
		t.Fatal("node A submission carried no trace ID")
	}
	docA, err := cA.Trace(ctx, infoA.TraceID)
	if err != nil {
		t.Fatalf("Trace on node A: %v", err)
	}
	jobA := findSpanNamed(docA.Spans, "job")
	if jobA == nil {
		t.Fatalf("node A trace has no job span: %+v", docA)
	}
	solveA := findSpanNamed(jobA.Children, "solve")
	if solveA == nil {
		t.Fatalf("node A job span has no solve child: %+v", docA)
	}
	senders := make(map[string]bool) // A-side span IDs that posted to B
	var exchanges int
	for _, sp := range flattenSpans(solveA.Children) {
		if sp.Name == "island.exchange" || sp.Name == "island.finish" {
			senders[sp.SpanID] = true
			if sp.Name == "island.exchange" {
				exchanges++
			}
		}
	}
	if exchanges == 0 {
		t.Fatalf("node A solve span has no island.exchange children: %+v", docA)
	}

	docB, err := cB.Trace(ctx, infoA.TraceID)
	if err != nil {
		t.Fatalf("node B holds no spans for node A's trace %s: %v", infoA.TraceID, err)
	}
	var joined int
	for _, sp := range flattenSpans(docB.Spans) {
		if sp.TraceID != infoA.TraceID {
			t.Errorf("node B span %s (%s) carries trace %s, want %s", sp.SpanID, sp.Name, sp.TraceID, infoA.TraceID)
		}
		if sp.Node != "nodeB" {
			t.Errorf("node B span %s (%s) stamped node %q, want nodeB", sp.SpanID, sp.Name, sp.Node)
		}
		if sp.Name != "POST /v1/islands/{session}/packets" {
			t.Errorf("unexpected span %q on node B under trace %s", sp.Name, infoA.TraceID)
			continue
		}
		if !senders[sp.ParentID] {
			t.Errorf("node B packet span %s parented by %q, not one of node A's exchange spans", sp.SpanID, sp.ParentID)
		}
		joined++
	}
	if joined == 0 {
		t.Errorf("no node B spans joined node A's trace: %+v", docB)
	}
}

// scrapeValue finds an unlabelled sample in a Prometheus text exposition.
func scrapeValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestSIGTERMCheckpointAndResume restarts the daemon around an in-flight
// CE job: SIGTERM checkpoints it, the next start resumes and finishes it
// under the original job id, with the uninterrupted run's result.
func TestSIGTERMCheckpointAndResume(t *testing.T) {
	bin := buildDaemon(t)
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	cmd, base := startDaemon(t, bin, "-checkpoint-dir", ckptDir, "-workers", "1")
	ctx := context.Background()
	c := client.New(base)

	p, err := matchsim.GeneratePaper(4, 26)
	if err != nil {
		t.Fatalf("GeneratePaper: %v", err)
	}
	var inst bytes.Buffer
	if err := p.WriteInstance(&inst); err != nil {
		t.Fatalf("WriteInstance: %v", err)
	}
	// Stall stops are pinned off so only the iteration cap ends the run:
	// long enough for SIGTERM to land mid-solve, short enough to finish
	// after the restart.
	opts := matchsim.MaTCHOptions{Seed: 3, Workers: 1, MaxIterations: 1500, StallC: 100000, GammaStallWindow: 100000}
	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: inst.Bytes(), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: opts.Seed, Workers: opts.Workers, MaxIterations: opts.MaxIterations,
			StallC: opts.StallC, GammaStallWindow: opts.GammaStallWindow},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait for at least one streamed iteration so a checkpoint exists.
	iterSeen := make(chan struct{})
	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	go c.Events(streamCtx, info.ID, func(e api.Event) {
		if e.Kind == "iter" {
			select {
			case iterSeen <- struct{}{}:
			default:
			}
		}
	})
	select {
	case <-iterSeen:
	case <-time.After(30 * time.Second):
		t.Fatal("no iteration observed before shutdown")
	}
	stopStream()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("matchd exited uncleanly: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ckptDir, info.ID+".json")); err != nil {
		t.Fatalf("no checkpoint persisted for interrupted job: %v", err)
	}

	// Restart over the same checkpoint dir: the job comes back under its
	// id and runs to the cap.
	cmd2, base2 := startDaemon(t, bin, "-checkpoint-dir", ckptDir, "-workers", "1")
	c2 := client.New(base2)
	resumed, err := c2.Info(ctx, info.ID)
	if err != nil {
		t.Fatalf("restored job lost: %v", err)
	}
	if !resumed.Resumed {
		t.Error("restored job not marked resumed")
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	final, err := c2.Wait(waitCtx, info.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != api.StateDone {
		t.Fatalf("resumed job ended %q (error %q), want done", final.State, final.Error)
	}
	res, err := c2.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	want, err := matchsim.SolveMaTCH(p, opts)
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	if math.Float64bits(res.Exec) != math.Float64bits(want.Exec) || !slices.Equal(res.Mapping, want.Mapping) ||
		res.Iterations != want.Iterations || res.Evaluations != want.Evaluations {
		t.Errorf("resumed result exec %v (%d iterations) differs from the uninterrupted %v (%d)",
			res.Exec, res.Iterations, want.Exec, want.Iterations)
	}
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM restart: %v", err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Errorf("restarted matchd exited uncleanly: %v", err)
	}
}
