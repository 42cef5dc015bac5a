package httpapi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/client"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
)

func newTestServer(t *testing.T, opts jobs.Options) (*client.Client, *jobs.Manager) {
	t.Helper()
	m := jobs.New(opts)
	ts := httptest.NewServer(New(m))
	t.Cleanup(func() {
		ts.Close()
		m.Shutdown(context.Background())
	})
	return client.New(ts.URL), m
}

func instanceJSON(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	p, err := matchsim.GeneratePaper(seed, n)
	if err != nil {
		t.Fatalf("GeneratePaper: %v", err)
	}
	var buf bytes.Buffer
	if err := p.WriteInstance(&buf); err != nil {
		t.Fatalf("WriteInstance: %v", err)
	}
	return buf.Bytes()
}

// TestSubmitAcceptsUnprunedScoring: older clients still send
// "unpruned_scoring": true. The daemon must accept it, solve normally, and
// answer with the same result and content address as a submission
// without it.
func TestSubmitAcceptsUnprunedScoring(t *testing.T) {
	checkIgnoredOptions(t, func(o *api.SolverOptions) { o.UnprunedScoring = true })
}

// TestSubmitAcceptsSparseOptions: older clients may still send
// "sparse_eps" and "sparse_cut", the knobs of the deleted sparse-row
// update. The daemon must accept them and solve as if they were absent.
func TestSubmitAcceptsSparseOptions(t *testing.T) {
	checkIgnoredOptions(t, func(o *api.SolverOptions) { o.SparseEps, o.SparseCut = 1e-4, 64 })
}

// checkIgnoredOptions submits a job carrying options the solver ignores
// (set by legacy) and asserts it completes with the bits of a direct
// library solve without them, and that the plain submission shares its
// content address and is answered from the cache.
func checkIgnoredOptions(t *testing.T, legacy func(*api.SolverOptions)) {
	t.Helper()
	c, m := newTestServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()
	inst := instanceJSON(t, 6, 10)
	opts := api.SolverOptions{Seed: 3, Workers: 1}
	legacy(&opts)
	old, err := c.Submit(ctx, api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH, Options: opts})
	if err != nil {
		t.Fatalf("Submit with legacy options: %v", err)
	}
	final, err := c.Wait(ctx, old.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != api.StateDone {
		t.Fatalf("job ended %q (error %q), want done", final.State, final.Error)
	}
	res, err := c.Result(ctx, old.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	p, _ := matchsim.ReadProblem(bytes.NewReader(inst))
	direct, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	if !reflect.DeepEqual(res.Mapping, direct.Mapping) || res.Exec != direct.Exec ||
		res.Iterations != direct.Iterations || res.Evaluations != direct.Evaluations {
		t.Fatalf("legacy-options result (%v, %v, %d iters) != direct (%v, %v, %d iters)",
			res.Mapping, res.Exec, res.Iterations, direct.Mapping, direct.Exec, direct.Iterations)
	}
	plain, err := c.Submit(ctx, api.SubmitRequest{
		Instance: inst, Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 3, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if plain.Key != old.Key || !plain.CacheHit {
		t.Fatalf("plain resubmission key=%s cacheHit=%v, want key %s and a cache hit",
			plain.Key, plain.CacheHit, old.Key)
	}
	if got := m.Stats().SolvesTotal; got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}
}

// TestHTTPRoundTrip drives the full protocol through the public client:
// submit, poll, result, and determinism against a direct library call.
func TestHTTPRoundTrip(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 2})
	ctx := context.Background()

	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
	inst := instanceJSON(t, 5, 12)
	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: inst, Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 99, Workers: 2},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := c.Wait(ctx, info.ID, 5*time.Millisecond)
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
	p, _ := matchsim.ReadProblem(bytes.NewReader(inst))
	direct, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 99, Workers: 2})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	if !reflect.DeepEqual(res.Mapping, direct.Mapping) || res.Exec != direct.Exec {
		t.Errorf("API result (%v, %v) != direct (%v, %v)", res.Mapping, res.Exec, direct.Mapping, direct.Exec)
	}
}

// TestHTTPErrors checks the protocol's error statuses: 400, 404, 409, 503.
func TestHTTPErrors(t *testing.T) {
	c, m := newTestServer(t, jobs.Options{Workers: 1, QueueCapacity: 1})
	ctx := context.Background()

	var apiErr *api.Error
	if _, err := c.Submit(ctx, api.SubmitRequest{Instance: []byte("{}"), Solver: "bogus"}); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("bad solver error = %v, want *api.Error 400", err)
	}
	if _, err := c.Info(ctx, "jmissing"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown id error = %v, want 404", err)
	}
	if _, err := c.Cancel(ctx, "jmissing"); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("cancel unknown id error = %v, want 404", err)
	}

	// A queued/running job's result is 409.
	long := api.SubmitRequest{
		Instance: instanceJSON(t, 8, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	}
	info, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Result(ctx, info.ID); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Errorf("early result error = %v, want 409", err)
	}

	// Saturate: worker busy + queue slot taken → 503.
	waitRunning(t, c, info.ID)
	if _, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 9, 8), Solver: api.SolverMaTCH, Options: api.SolverOptions{Seed: 2},
	}); err != nil {
		t.Fatalf("filler submit: %v", err)
	}
	_, err = c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 10, 8), Solver: api.SolverMaTCH, Options: api.SolverOptions{Seed: 3},
	})
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Errorf("overflow submit error = %v, want 503", err)
	}

	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if _, err := c.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("Wait after cancel: %v", err)
	}
	_ = m
}

// TestHTTPCancelStopsJob checks DELETE over the wire lands the job in
// cancelled.
func TestHTTPCancelStopsJob(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 14, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 4, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitRunning(t, c, info.ID)
	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final, err := c.Wait(ctx, info.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != api.StateCancelled {
		t.Errorf("job ended %q, want cancelled", final.State)
	}
}

// TestSSEEvents checks the event stream over real HTTP: history replay,
// live iterations, and stream close at job end.
func TestSSEEvents(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 16, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 12, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var kinds []string
	streamCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := c.Events(streamCtx, info.ID, func(e api.Event) {
		kinds = append(kinds, e.Kind)
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(kinds) < 3 {
		t.Fatalf("streamed %d events, want start + iters + end", len(kinds))
	}
	if kinds[0] != "start" || kinds[len(kinds)-1] != "end" {
		t.Errorf("stream shape %v, want start...end", kinds)
	}
	// Subscribing after the end replays the identical history.
	var replay []string
	if err := c.Events(ctx, info.ID, func(e api.Event) { replay = append(replay, e.Kind) }); err != nil {
		t.Fatalf("replay Events: %v", err)
	}
	if !reflect.DeepEqual(replay, kinds) {
		t.Errorf("replay %v != live %v", replay, kinds)
	}
}

// TestMetrics checks the Prometheus exposition carries the service gauges
// and counters, including the cache hit recorded by a resubmission.
func TestMetrics(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	req := api.SubmitRequest{
		Instance: instanceJSON(t, 18, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 2, Workers: 1},
	}
	info, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := c.Submit(ctx, req); err != nil { // cache hit
		t.Fatalf("resubmit: %v", err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"matchd_queue_depth 0",
		"matchd_workers 1",
		"matchd_jobs_submitted_total 2",
		"matchd_cache_hits_total 1",
		"matchd_cache_misses_total 1",
		"matchd_solves_total 1",
		`matchd_jobs{state="done"} 2`,
		"matchd_solve_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func waitRunning(t *testing.T, c *client.Client, id string) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := c.Info(ctx, id)
		if err != nil {
			t.Fatalf("Info: %v", err)
		}
		if info.State == api.StateRunning {
			return
		}
		if api.TerminalState(info.State) || time.Now().After(deadline) {
			t.Fatalf("job %s in %q, never observed running", id, info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricValue extracts the sample value of the first exposition line whose
// series (name plus optional label set) matches prefix exactly.
func metricValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metrics missing series %q:\n%s", prefix, text)
	return 0
}

// TestMetricsSolverInternalsAndRED checks that running one MaTCH job
// populates the solver-internals counters and that the RED middleware
// records the requests that drove it.
func TestMetricsSolverInternalsAndRED(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 21, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 4, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := c.Info(ctx, "j-missing"); err == nil {
		t.Fatal("Info on unknown id should fail")
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}

	// Solver internals: a real CE run must have iterated and drawn samples,
	// and its per-phase histograms must have observed every iteration.
	iters := metricValue(t, text, "matchd_solver_iterations_total")
	if iters <= 0 {
		t.Errorf("matchd_solver_iterations_total = %v, want > 0", iters)
	}
	if draws := metricValue(t, text, "matchd_solver_draws_total"); draws <= 0 {
		t.Errorf("matchd_solver_draws_total = %v, want > 0", draws)
	}
	for _, phase := range []string{"sample", "select", "update"} {
		name := "matchd_solver_" + phase + "_phase_seconds_count"
		if n := metricValue(t, text, name); n != iters {
			t.Errorf("%s = %v, want %v (one observation per iteration)", name, n, iters)
		}
	}

	// RED middleware: the submit, the 404 probe, and the polling GETs.
	if n := metricValue(t, text, `matchd_http_requests_total{route="POST /v1/jobs",method="POST",code="202"}`); n != 1 {
		t.Errorf("submit request count = %v, want 1", n)
	}
	if n := metricValue(t, text, `matchd_http_requests_total{route="GET /v1/jobs/{id}",method="GET",code="404"}`); n != 1 {
		t.Errorf("404 request count = %v, want 1", n)
	}
	if n := metricValue(t, text, `matchd_http_request_errors_total{route="GET /v1/jobs/{id}"}`); n != 1 {
		t.Errorf("error count = %v, want 1", n)
	}
	if n := metricValue(t, text, `matchd_http_request_seconds_count{route="POST /v1/jobs"}`); n != 1 {
		t.Errorf("latency observation count = %v, want 1", n)
	}
}

// TestWatchJob pulls a job's full event stream through the typed iterator
// and checks its shape and the enriched iteration payload.
func TestWatchJob(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 16, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 12, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	w, err := c.WatchJob(ctx, info.ID)
	if err != nil {
		t.Fatalf("WatchJob: %v", err)
	}
	defer w.Close()

	var kinds []string
	var sawInternals bool
	for e, ok := w.Next(); ok; e, ok = w.Next() {
		kinds = append(kinds, e.Kind)
		if e.Kind == "iter" && e.Draws > 0 && e.SampleNs > 0 {
			sawInternals = true
		}
	}
	if err := w.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if len(kinds) < 3 || kinds[0] != "start" || kinds[len(kinds)-1] != "end" {
		t.Fatalf("stream shape %v, want start...end with iterations", kinds)
	}
	if !sawInternals {
		t.Error("no iteration event carried solver internals (draws, sample_ns)")
	}
}

// TestWatchJobUnknownID checks the typed 404 surfaces from WatchJob itself.
func TestWatchJobUnknownID(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1})
	if _, err := c.WatchJob(context.Background(), "j-nope"); err == nil {
		t.Fatal("WatchJob on unknown id should fail")
	} else {
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Status != 404 {
			t.Fatalf("err = %v, want *api.Error with status 404", err)
		}
	}
}

// TestWatchJobClose detaches mid-stream: Close must unblock promptly and a
// subsequent Next must report the stream as ended without error.
func TestWatchJobClose(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 30, 24), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 9, Workers: 1, MaxIterations: 500},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	w, err := c.WatchJob(ctx, info.ID)
	if err != nil {
		t.Fatalf("WatchJob: %v", err)
	}
	if _, ok := w.Next(); !ok {
		t.Fatal("Next: stream ended before any event")
	}
	w.Close()
	if _, ok := w.Next(); ok {
		// One raced event may drain; the one after that must report closed.
		if _, ok := w.Next(); ok {
			t.Fatal("Next still yielding events after Close")
		}
	}
	if err := w.Err(); err != nil {
		t.Fatalf("Err after Close: %v", err)
	}
	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
}

// newTracedServer is newTestServer with a span tracer installed, also
// returning the server's base URL for raw scrapes.
func newTracedServer(t *testing.T, opts jobs.Options) (*client.Client, *jobs.Manager, string) {
	t.Helper()
	if opts.Tracer == nil {
		opts.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Node: "test-node"})
	}
	m := jobs.New(opts)
	ts := httptest.NewServer(New(m))
	t.Cleanup(func() {
		ts.Close()
		m.Shutdown(context.Background())
	})
	return client.New(ts.URL), m, ts.URL
}

// findSpan walks a span tree depth-first for the first span named name.
func findSpan(spans []api.Span, name string) *api.Span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if hit := findSpan(spans[i].Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestTraceEndToEnd drives a traced submission through the whole stack:
// the caller's traceparent must become the job's trace ID, and the
// retained trace must contain the request span with the job span (and
// its queue/solve children) parented beneath it.
func TestTraceEndToEnd(t *testing.T) {
	c, m, _ := newTracedServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	const callerTrace = "11223344556677889900aabbccddeeff"
	tpCtx := client.ContextWithTraceparent(ctx, "00-"+callerTrace+"-1234567890abcdef-01")
	info, err := c.Submit(tpCtx, api.SubmitRequest{
		Instance: instanceJSON(t, 41, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 7, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.TraceID != callerTrace {
		t.Fatalf("JobInfo.TraceID = %q, want caller's %q", info.TraceID, callerTrace)
	}
	if _, err := c.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	doc, err := c.Trace(ctx, callerTrace)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if doc.TraceID != callerTrace || doc.SpanCount < 4 {
		t.Fatalf("TraceDoc = id %q, %d spans; want %q with request+job+queue+solve", doc.TraceID, doc.SpanCount, callerTrace)
	}
	req := findSpan(doc.Spans, "POST /v1/jobs")
	if req == nil {
		t.Fatalf("trace has no request span: %+v", doc)
	}
	job := findSpan(req.Children, "job")
	if job == nil {
		t.Fatalf("job span not parented under request span: %+v", doc)
	}
	if job.Node != "test-node" {
		t.Errorf("job span node = %q, want test-node", job.Node)
	}
	for _, child := range []string{"queue", "solve"} {
		sp := findSpan(job.Children, child)
		if sp == nil {
			t.Errorf("job span missing %q child", child)
			continue
		}
		if sp.ParentID != job.SpanID || sp.TraceID != callerTrace {
			t.Errorf("%q span parent/trace = %q/%q, want %q/%q", child, sp.ParentID, sp.TraceID, job.SpanID, callerTrace)
		}
	}
	var sawResult bool
	for _, ev := range job.Events {
		if ev.Name == "result" {
			sawResult = true
		}
	}
	if !sawResult {
		t.Errorf("job span events %v missing \"result\"", job.Events)
	}
	if solve := findSpan(job.Children, "solve"); solve != nil && len(solve.Events) == 0 {
		t.Error("solve span has no iteration events")
	}

	sums, err := c.Traces(ctx, 10)
	if err != nil {
		t.Fatalf("Traces: %v", err)
	}
	var listed bool
	for _, s := range sums {
		if s.TraceID == callerTrace {
			listed = true
		}
	}
	if !listed {
		t.Errorf("GET /v1/traces does not list %q: %+v", callerTrace, sums)
	}

	if open := m.Tracer().OpenSpans(); open != 0 {
		t.Errorf("%d spans still open after job finished", open)
	}
}

// TestTraceIterEventsMatchSSE: every "iter" event of a job's solve span,
// as GET /v1/traces/{id} serves it, carries the same iteration index,
// gamma, best-so-far, draws and phase times as that iteration's SSE
// event, rendered as the span attributes always were.
func TestTraceIterEventsMatchSSE(t *testing.T) {
	const iters = 20
	c, _, _ := newTracedServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()
	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 44, 12), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 9, Workers: 1, MaxIterations: iters, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	sse := map[string]api.Event{}
	if err := c.Events(ctx, info.ID, func(e api.Event) {
		if e.Kind == api.KindIteration {
			sse[strconv.Itoa(e.Iter)] = e
		}
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	doc, err := c.Trace(ctx, info.TraceID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	solve := findSpan(doc.Spans, "solve")
	if solve == nil {
		t.Fatalf("trace has no solve span: %+v", doc)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	n := 0
	for _, ev := range solve.Events {
		if ev.Name != "iter" {
			continue
		}
		n++
		e, ok := sse[ev.Attrs["i"]]
		if !ok {
			t.Fatalf("span event for iteration %q has no SSE event", ev.Attrs["i"])
		}
		want := map[string]string{
			"i":           strconv.Itoa(e.Iter),
			"gamma":       f(e.Gamma),
			"best_so_far": f(e.BestSoFar),
			"draws":       strconv.Itoa(e.Draws),
			"sample_ns":   strconv.FormatInt(e.SampleNs, 10),
			"select_ns":   strconv.FormatInt(e.SelectNs, 10),
			"update_ns":   strconv.FormatInt(e.UpdateNs, 10),
		}
		if !reflect.DeepEqual(ev.Attrs, want) {
			t.Errorf("iteration %d: span attrs %v, SSE fields %v", e.Iter, ev.Attrs, want)
		}
	}
	if n != iters || len(sse) != iters {
		t.Fatalf("%d span iteration events and %d SSE iteration events, want %d each", n, len(sse), iters)
	}
}

// TestTraceRootedWithoutHeader checks POST /v1/jobs roots a fresh trace
// when no traceparent arrives, and that an unknown trace ID is a 404.
func TestTraceRootedWithoutHeader(t *testing.T) {
	c, _, _ := newTracedServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 43, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 3, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(info.TraceID) != 32 {
		t.Fatalf("JobInfo.TraceID = %q, want fresh 32-hex id", info.TraceID)
	}
	if _, err := c.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := c.Trace(ctx, info.TraceID); err != nil {
		t.Fatalf("Trace on fresh id: %v", err)
	}
	var apiErr *api.Error
	if _, err := c.Trace(ctx, strings.Repeat("f", 32)); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown trace error = %v, want 404", err)
	}
}

// TestReadyz checks the readiness probe: ready with per-check details on
// a fresh daemon, 503 once the queue saturates.
func TestReadyz(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1, QueueCapacity: 1})
	ctx := context.Background()

	st, err := c.Ready(ctx)
	if err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if st.Status != "ready" {
		t.Fatalf("fresh daemon status = %q, want ready", st.Status)
	}
	var names []string
	for _, chk := range st.Checks {
		names = append(names, chk.Name)
		if !chk.OK {
			t.Errorf("check %s not ok: %s", chk.Name, chk.Detail)
		}
	}
	for _, want := range []string{"queue", "island_board"} {
		var found bool
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("readiness checks %v missing %q", names, want)
		}
	}

	// Saturate: one running job plus a queued one fills capacity 1.
	long := api.SubmitRequest{
		Instance: instanceJSON(t, 44, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	}
	info, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitRunning(t, c, info.ID)
	filler := long
	filler.Options.Seed = 2
	if _, err := c.Submit(ctx, filler); err != nil {
		t.Fatalf("filler submit: %v", err)
	}
	st, err = c.Ready(ctx)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("saturated Ready error = %v, want 503", err)
	}
	if st.Status != "unready" {
		t.Errorf("saturated status = %q, want unready", st.Status)
	}
	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
}

// TestStreamLatencySeries checks the SSE fix: streaming requests land
// their lifetime in matchd_http_stream_seconds while the shared request
// histogram gets only time-to-first-byte, keeping stream lifetimes out
// of the API latency percentiles.
func TestStreamLatencySeries(t *testing.T) {
	c, _ := newTestServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 45, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 5, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Events(ctx, info.ID, func(api.Event) {}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	const route = `{route="GET /v1/jobs/{id}/events"}`
	if n := metricValue(t, text, "matchd_http_stream_seconds_count"+route); n != 1 {
		t.Errorf("stream lifetime observations = %v, want 1", n)
	}
	if n := metricValue(t, text, "matchd_http_request_seconds_count"+route); n != 1 {
		t.Errorf("TTFB observations = %v, want 1", n)
	}
	// TTFB must not exceed the stream's lifetime.
	ttfb := metricValue(t, text, "matchd_http_request_seconds_sum"+route)
	life := metricValue(t, text, "matchd_http_stream_seconds_sum"+route)
	if ttfb > life {
		t.Errorf("TTFB %v > stream lifetime %v", ttfb, life)
	}
}

// TestMetricsOpenMetricsNegotiation checks /metrics stays plain 0.0.4 by
// default and renders exemplar-bearing OpenMetrics when asked.
func TestMetricsOpenMetricsNegotiation(t *testing.T) {
	c, _, base := newTracedServer(t, jobs.Options{Workers: 1})
	ctx := context.Background()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 46, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 6, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(ctx, info.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	plain, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if strings.Contains(plain, "trace_id") || strings.Contains(plain, "# EOF") {
		t.Error("default exposition leaked OpenMetrics syntax")
	}

	resp, err := http.Get(base + "/metrics?exemplars=1")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	om := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("Content-Type = %q, want application/openmetrics-text", ct)
	}
	if !strings.HasSuffix(strings.TrimRight(om, "\n"), "# EOF") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}
	if !strings.Contains(om, `# {trace_id="`+info.TraceID+`"}`) {
		t.Errorf("OpenMetrics exposition has no exemplar for trace %s", info.TraceID)
	}
}

// TestStatusLongPoll covers GET /v1/jobs/{id}?state=&wait=: a malformed or
// negative wait is a 400, an unknown id a 404, a wait over the cap is
// clamped to it, and the hold ends as soon as the job's state changes.
// The hold time lands in matchd_http_stream_seconds, never in the
// route's request-latency histogram.
func TestStatusLongPoll(t *testing.T) {
	m := jobs.New(jobs.Options{Workers: 1})
	s := New(m)
	s.maxWait = 100 * time.Millisecond
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		m.Shutdown(context.Background())
	})
	c := client.New(ts.URL)
	ctx := context.Background()

	info, err := c.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 8, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.WaitInfo(ctx, info.ID, api.StateQueued); err != nil {
		t.Fatalf("WaitInfo: %v", err)
	}
	if got, err := c.Info(ctx, info.ID); err != nil || got.State != api.StateRunning {
		t.Fatalf("Info = %q, %v; want running", got.State, err)
	}

	for _, wait := range []string{"abc", "-1s", "5"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "?state=running&wait=" + wait)
		if err != nil {
			t.Fatalf("GET wait=%s: %v", wait, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("wait=%s: status %d, want 400", wait, resp.StatusCode)
		}
	}
	var apiErr *api.Error
	if _, err := c.InfoWait(ctx, "jmissing", api.StateQueued, time.Second); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown id long-poll error = %v, want 404", err)
	}

	start := time.Now()
	got, err := c.InfoWait(ctx, info.ID, api.StateRunning, time.Hour)
	held := time.Since(start)
	if err != nil || got.State != api.StateRunning {
		t.Fatalf("clamped long-poll = %q, %v; want running", got.State, err)
	}
	if held < s.maxWait || held > 5*time.Second {
		t.Fatalf("wait=1h held %v, want the %v cap", held, s.maxWait)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	const route = `{route="GET /v1/jobs/{id}"}`
	if n := metricValue(t, text, "matchd_http_stream_seconds_count"+route); n != 5 {
		t.Errorf("long-poll observations in the stream histogram = %v, want 5", n)
	}
	if n := metricValue(t, text, "matchd_http_request_seconds_count"+route); n != 1 {
		t.Errorf("request-latency observations = %v, want only the plain status call", n)
	}
	if sum := metricValue(t, text, "matchd_http_request_seconds_sum"+route); sum >= s.maxWait.Seconds() {
		t.Errorf("request-latency sum %vs includes a long-poll hold", sum)
	}

	// A held request answers as soon as the state changes; a second
	// daemon keeps the default cap so the hold cannot end on its own.
	c2, _ := newTestServer(t, jobs.Options{Workers: 1})
	info, err = c2.Submit(ctx, api.SubmitRequest{
		Instance: instanceJSON(t, 9, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 2, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitRunning(t, c2, info.ID)
	type answer struct {
		info api.JobInfo
		err  error
	}
	woke := make(chan answer, 1)
	go func() {
		info, err := c2.InfoWait(ctx, info.ID, api.StateRunning, MaxStatusWait)
		woke <- answer{info, err}
	}()
	time.Sleep(20 * time.Millisecond)
	start = time.Now()
	if _, err := c2.Cancel(ctx, info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	a := <-woke
	if a.err != nil || a.info.State != api.StateCancelled {
		t.Fatalf("held long-poll = %q, %v; want cancelled", a.info.State, a.err)
	}
	if d := time.Since(start); d > MaxStatusWait/2 {
		t.Fatalf("long-poll answered %v after the state change", d)
	}
}
