package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/client"
	"matchsim/internal/httpapi"
	"matchsim/internal/jobs"
)

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

// testWorker is one worker daemon: a jobs.Manager behind the real HTTP
// surface, so the coordinator exercises the wire protocol end to end.
type testWorker struct {
	m  *jobs.Manager
	ts *httptest.Server
}

func startWorkers(t *testing.T, n int) []*testWorker {
	t.Helper()
	ws := make([]*testWorker, n)
	for i := range ws {
		ws[i] = startWorker(t, jobs.Options{Workers: 2}, nil)
	}
	return ws
}

// startWorker starts one worker daemon, behind front when it is non-nil.
func startWorker(t *testing.T, opts jobs.Options, front *callCounter) *testWorker {
	t.Helper()
	m := jobs.New(opts)
	var h http.Handler = httpapi.New(m)
	if front != nil {
		front.inner = h
		h = front
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		m.Shutdown(context.Background())
	})
	return &testWorker{m: m, ts: ts}
}

func workerBases(ws []*testWorker) []string {
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.ts.URL
	}
	return urls
}

func newTestCoordinator(t *testing.T, ws []*testWorker, opts Options) *Coordinator {
	t.Helper()
	opts.Workers = workerBases(ws)
	if opts.PollInterval == 0 {
		opts.PollInterval = 5 * time.Millisecond
	}
	if opts.HealthEvery == 0 {
		opts.HealthEvery = 20 * time.Millisecond
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 5 * time.Second
	}
	co, err := New(opts)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { co.Shutdown(context.Background()) })
	return co
}

// waitDone polls the coordinator until the job is terminal.
func waitDone(t *testing.T, co *Coordinator, id string) api.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := co.Info(id)
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		if api.TerminalState(info.State) {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return api.JobInfo{}
}

// metricValue scrapes one un-labelled series from a Prometheus text
// exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

func coordinatorMetrics(t *testing.T, co *Coordinator) string {
	t.Helper()
	var buf bytes.Buffer
	if err := co.Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// TestCoordinatorDeterminism: a coordinator-routed solve is bit-identical
// to the same submission on a standalone daemon, for both the plain CE
// path and the island ensemble — the routing tier observes, never
// perturbs. Options the solver ignores (sparse_eps and sparse_cut) are
// left out of the standalone submission, which must give the same bits.
// Also pins routing to the ring and the Worker status field.
func TestCoordinatorDeterminism(t *testing.T) {
	ws := startWorkers(t, 2)
	co := newTestCoordinator(t, ws, Options{CheckpointEvery: 1})
	standalone := jobs.New(jobs.Options{Workers: 2})
	t.Cleanup(func() { standalone.Shutdown(context.Background()) })

	inst := instanceJSON(t, 7, 12)
	arms := []struct {
		name string
		opts api.SolverOptions
	}{
		{"plain", api.SolverOptions{Seed: 42, Workers: 2}},
		{"islands", api.SolverOptions{Seed: 42, Workers: 2, Islands: 3, MigrateEvery: 4}},
		{"sparse options ignored", api.SolverOptions{Seed: 43, Workers: 2, SparseEps: 1e-4, SparseCut: 64}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			req := api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH, Options: arm.opts}
			info, err := co.Submit(req)
			if err != nil {
				t.Fatalf("coordinator Submit: %v", err)
			}
			final := waitDone(t, co, info.ID)
			if final.State != api.StateDone {
				t.Fatalf("coordinator job ended %q (error %q)", final.State, final.Error)
			}
			if final.Resumed {
				t.Fatal("undisturbed coordinator job reported Resumed")
			}
			want := NewRing(workerBases(ws), 0).Lookup(info.Key)
			if final.Worker != want {
				t.Fatalf("job ran on %q, ring owns key at %q", final.Worker, want)
			}
			res, err := co.Result(info.ID)
			if err != nil {
				t.Fatalf("coordinator Result: %v", err)
			}

			sreq := req
			sreq.Options.SparseEps, sreq.Options.SparseCut = 0, 0
			sinfo, err := standalone.Submit(sreq)
			if err != nil {
				t.Fatalf("standalone Submit: %v", err)
			}
			var sres api.JobResult
			for {
				i, err := standalone.Info(sinfo.ID)
				if err != nil {
					t.Fatalf("standalone Info: %v", err)
				}
				if api.TerminalState(i.State) {
					if i.State != api.StateDone {
						t.Fatalf("standalone job ended %q (error %q)", i.State, i.Error)
					}
					sres, err = standalone.Result(sinfo.ID)
					if err != nil {
						t.Fatalf("standalone Result: %v", err)
					}
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !reflect.DeepEqual(res.Mapping, sres.Mapping) || res.Exec != sres.Exec {
				t.Fatalf("coordinator result diverged: exec %v vs %v, mapping %v vs %v",
					res.Exec, sres.Exec, res.Mapping, sres.Mapping)
			}
		})
	}
}

// TestCoordinatorSingleflight: N identical concurrent submissions
// collapse onto one worker solve — asserted on the workers' own solver
// counters, not just coordinator bookkeeping — and every submitter gets
// the same bits.
func TestCoordinatorSingleflight(t *testing.T) {
	ws := startWorkers(t, 2)
	co := newTestCoordinator(t, ws, Options{CheckpointEvery: 1})

	// Slow the solve down so every duplicate lands while it is in flight.
	req := api.SubmitRequest{
		Instance: instanceJSON(t, 11, 24),
		Solver:   api.SolverMaTCH,
		Options: api.SolverOptions{
			Seed: 3, Workers: 2, SampleSize: 300,
			MaxIterations: 120, GammaStallWindow: 1000, StallC: 1000,
		},
	}
	const N = 8
	ids := make([]string, N)
	for i := 0; i < N; i++ {
		info, err := co.Submit(req)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = info.ID
	}
	var first api.JobResult
	for i, id := range ids {
		final := waitDone(t, co, id)
		if final.State != api.StateDone {
			t.Fatalf("job %d ended %q (error %q)", i, final.State, final.Error)
		}
		res, err := co.Result(id)
		if err != nil {
			t.Fatalf("Result %d: %v", i, err)
		}
		if i == 0 {
			first = res
			continue
		}
		if !reflect.DeepEqual(res.Mapping, first.Mapping) || res.Exec != first.Exec {
			t.Fatalf("submitter %d saw a different result", i)
		}
	}

	var solves uint64
	for _, w := range ws {
		solves += w.m.Stats().SolvesTotal
	}
	if solves != 1 {
		t.Fatalf("workers performed %d solves for %d identical submissions, want exactly 1", solves, N)
	}
	var iterWorkers int
	for _, w := range ws {
		var buf bytes.Buffer
		if err := w.m.Registry().WritePrometheus(&buf); err != nil {
			t.Fatalf("worker WritePrometheus: %v", err)
		}
		if metricValue(t, buf.String(), "matchd_solver_iterations_total") > 0 {
			iterWorkers++
		}
	}
	if iterWorkers != 1 {
		t.Fatalf("matchd_solver_iterations_total advanced on %d workers, want 1", iterWorkers)
	}
	text := coordinatorMetrics(t, co)
	if got := metricValue(t, text, "matchd_cluster_singleflight_hits_total"); got != N-1 {
		t.Fatalf("singleflight hits metric = %v, want %d", got, N-1)
	}
}

// TestCoordinatorCache: a repeat submission after completion is answered
// from the coordinator cache without touching a worker again — including
// a repeat that differs only in options the solver ignores or that names
// the deprecated solver alias distributed.
func TestCoordinatorCache(t *testing.T) {
	ws := startWorkers(t, 2)
	co := newTestCoordinator(t, ws, Options{CheckpointEvery: 1})

	req := api.SubmitRequest{
		Instance: instanceJSON(t, 5, 10),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 9, Workers: 2},
	}
	info, err := co.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitDone(t, co, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("job ended %q", final.State)
	}
	res1, _ := co.Result(info.ID)

	legacy := req
	legacy.Options.UnprunedScoring = true
	sparse := req
	sparse.Options.SparseEps, sparse.Options.SparseCut = 1e-4, 64
	distributed := req
	distributed.Solver, distributed.Options.NumAgents = api.SolverDistributed, 4
	repeats := []struct {
		name string
		req  api.SubmitRequest
	}{
		{"identical", req},
		{"unpruned_scoring is ignored", legacy},
		{"sparse_eps and sparse_cut are ignored", sparse},
		{"distributed with num_agents is match", distributed},
	}
	for _, r := range repeats {
		info2, err := co.Submit(r.req)
		if err != nil {
			t.Fatalf("%s: repeat Submit: %v", r.name, err)
		}
		if info2.Key != info.Key {
			t.Fatalf("%s: key %s, want the original %s", r.name, info2.Key, info.Key)
		}
		if info2.State != api.StateDone || !info2.CacheHit {
			t.Fatalf("%s: repeat submission state=%q cacheHit=%v, want an immediate cache hit", r.name, info2.State, info2.CacheHit)
		}
		res2, err := co.Result(info2.ID)
		if err != nil {
			t.Fatalf("%s: cached Result: %v", r.name, err)
		}
		if !res2.CacheHit {
			t.Fatalf("%s: cached result not marked CacheHit", r.name)
		}
		if !reflect.DeepEqual(res1.Mapping, res2.Mapping) || res1.Exec != res2.Exec {
			t.Fatalf("%s: cached result diverged from the solved one", r.name)
		}
	}
	var solves uint64
	for _, w := range ws {
		solves += w.m.Stats().SolvesTotal
	}
	if solves != 1 {
		t.Fatalf("cache hit still reached a worker (%d solves)", solves)
	}
	text := coordinatorMetrics(t, co)
	if got := metricValue(t, text, "matchd_cluster_cache_hits_total"); got != float64(len(repeats)) {
		t.Fatalf("coordinator cache hits metric = %v, want %d", got, len(repeats))
	}
}

// TestClusterServerBatch: the coordinator's batch route round-trips
// per-item statuses — accepted jobs alongside per-item 400s — through
// the public client.
func TestClusterServerBatch(t *testing.T) {
	ws := startWorkers(t, 2)
	co := newTestCoordinator(t, ws, Options{CheckpointEvery: 1})
	ts := httptest.NewServer(NewServer(co))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()

	good := api.SubmitRequest{
		Instance: instanceJSON(t, 2, 10),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 1, Workers: 2},
	}
	badSolver := good
	badSolver.Solver = "no-such-solver"
	badInstance := good
	badInstance.Instance = json.RawMessage(`{"not":"an instance"}`)

	resp, err := c.SubmitBatch(ctx, api.BatchSubmitRequest{
		Jobs: []api.SubmitRequest{good, badSolver, badInstance},
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(resp.Items))
	}
	if resp.Items[0].Status != http.StatusAccepted || resp.Items[0].Info == nil {
		t.Fatalf("good item: status %d info %v", resp.Items[0].Status, resp.Items[0].Info)
	}
	for i := 1; i <= 2; i++ {
		it := resp.Items[i]
		if it.Status != http.StatusBadRequest || it.Error == "" || it.Info != nil {
			t.Fatalf("bad item %d: status %d error %q info %v", i, it.Status, it.Error, it.Info)
		}
	}
	final, err := c.Wait(ctx, resp.Items[0].Info.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != api.StateDone {
		t.Fatalf("batch job ended %q (error %q)", final.State, final.Error)
	}
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		t.Fatalf("ClusterStatus: %v", err)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("cluster status lists %d workers, want 2", len(st.Workers))
	}
	for _, w := range st.Workers {
		if !w.Up {
			t.Fatalf("worker %s reported down", w.URL)
		}
	}
}

// TestCoordinatorRejectsBadSubmissions: validation failures are local
// synchronous errors, never a spun-up flight. jobs.Admit, the one front
// door both tiers share, and the worker tier reject the same cases.
func TestCoordinatorRejectsBadSubmissions(t *testing.T) {
	ws := startWorkers(t, 1)
	co := newTestCoordinator(t, ws, Options{})

	// A checkpoint whose best_exec is not its incumbent's score.
	p, err := matchsim.ReadProblem(bytes.NewReader(instanceJSON(t, 1, 8)))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 1, Workers: 1, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	forged := sol.Checkpoint()
	forged.BestExec = 1
	forgedDoc, err := forged.Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := []api.SubmitRequest{
		{Solver: api.SolverMaTCH},                                  // no instance
		{Instance: instanceJSON(t, 1, 8), Solver: "bogus"},         // unknown solver
		{Instance: json.RawMessage(`{}`), Solver: api.SolverMaTCH}, // invalid instance
		{Instance: instanceJSON(t, 1, 8), Solver: api.SolverGA, // checkpoint on a non-CE solver
			Checkpoint: json.RawMessage(`{"x":1}`)},
		{Instance: instanceJSON(t, 1, 8), Solver: api.SolverMaTCH, Checkpoint: forgedDoc}, // forged best_exec
	}
	for i, req := range cases {
		admitted := req
		if _, _, _, err := jobs.Admit(&admitted, co.Logger()); err == nil {
			t.Errorf("case %d: Admit accepted a bad submission", i)
		}
		if _, err := ws[0].m.Submit(req); err == nil {
			t.Errorf("case %d: worker accepted a bad submission", i)
		}
		if _, err := co.Submit(req); err == nil {
			t.Errorf("case %d: coordinator accepted a bad submission", i)
		}
	}
	if st := co.Status(); st.Flights != 0 {
		t.Fatalf("%d flights left behind by rejected submissions", st.Flights)
	}
	if n := ws[0].m.Stats().Submitted; n != 0 {
		t.Fatalf("worker counted %d submissions from rejected requests", n)
	}
}

// TestRestoreLegacyJournal: a journal written before exact resume (it
// carries the retired "no_cache" field) and naming the deprecated solver
// alias distributed still re-attaches; the flight completes as a match
// job under its original job id and its result enters the cache.
func TestRestoreLegacyJournal(t *testing.T) {
	ws := startWorkers(t, 1)
	dir := t.TempDir()
	req := api.SubmitRequest{
		Instance: instanceJSON(t, 2, 8), Solver: api.SolverDistributed,
		Options: api.SolverOptions{Seed: 3, Workers: 1, MaxIterations: 10, NumAgents: 4},
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	doc := `{"id":"flegacy01","key":"legacy-key","request":` + string(reqJSON) +
		`,"no_cache":true,"worker":"` + ws[0].ts.URL + `","worker_job_id":"jgone",` +
		`"jobs":[{"id":"clegacy01","created":"2026-01-02T03:04:05Z"}]}`
	if err := os.WriteFile(filepath.Join(dir, "flegacy01.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	co := newTestCoordinator(t, ws, Options{StateDir: dir})
	restored, err := co.Restore()
	if err != nil || restored != 1 {
		t.Fatalf("Restore = %d, %v; want 1 flight", restored, err)
	}
	final := waitDone(t, co, "clegacy01")
	if final.State != api.StateDone {
		t.Fatalf("re-attached job ended %q (error %q)", final.State, final.Error)
	}
	if final.Solver != api.SolverMaTCH {
		t.Errorf("re-attached job reports solver %q, want %q", final.Solver, api.SolverMaTCH)
	}
	if n := metricValue(t, coordinatorMetrics(t, co), "matchd_cluster_cache_entries"); n != 1 {
		t.Errorf("cache entries after the re-attached flight = %v, want 1", n)
	}
}

// callCounter is a worker front that counts the coordinator's job-status
// and checkpoint calls. With stripQuery it also drops every query string,
// standing in for a worker build that predates the long-poll status.
type callCounter struct {
	inner       http.Handler
	stripQuery  bool
	status      atomic.Int64
	checkpoints atomic.Int64
}

func (c *callCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok && r.Method == http.MethodGet {
		switch {
		case !strings.Contains(rest, "/"):
			c.status.Add(1)
		case strings.HasSuffix(rest, "/checkpoint"):
			c.checkpoints.Add(1)
		}
	}
	if c.stripQuery {
		r.URL.RawQuery = ""
	}
	c.inner.ServeHTTP(w, r)
}

// workerJobID is the id of a coordinator job's solve on its worker.
func workerJobID(co *Coordinator, id string) string {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.jobs[id].flight.workerJobID
}

// TestCoordinatorSeesCompletionPromptly: a routed job is done on the
// coordinator right after its worker finishes it, however long
// PollInterval is — the status call long-polls instead of sleeping.
func TestCoordinatorSeesCompletionPromptly(t *testing.T) {
	counter := &callCounter{}
	w := startWorker(t, jobs.Options{Workers: 2}, counter)
	co := newTestCoordinator(t, []*testWorker{w}, Options{PollInterval: 2 * time.Second})

	info, err := co.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 13, 12),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 4, Workers: 1, MaxIterations: 20},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitDone(t, co, info.ID)
	seen := time.Now()
	if final.State != api.StateDone {
		t.Fatalf("job ended %q (error %q)", final.State, final.Error)
	}
	winfo, err := w.m.Info(workerJobID(co, info.ID))
	if err != nil {
		t.Fatalf("worker Info: %v", err)
	}
	if lag := seen.Sub(winfo.Finished); lag > 300*time.Millisecond {
		t.Fatalf("coordinator saw the job done %v after the worker finished it (PollInterval 2s)", lag)
	}
	if n := counter.status.Load(); n > 3 {
		t.Fatalf("%d status calls for one short job, want at most 3", n)
	}
}

// TestCoordinatorPollCadence: while a routed job runs, its worker sees
// at most about one status and one checkpoint call per PollInterval,
// whether the worker holds the status call (long-poll) or answers at once
// (an older worker that ignores ?wait=). Either way the flight completes
// with the standalone bits.
func TestCoordinatorPollCadence(t *testing.T) {
	const poll = 40 * time.Millisecond
	req := api.SubmitRequest{
		Instance: instanceJSON(t, 17, 16),
		Solver:   api.SolverMaTCH,
		Options: api.SolverOptions{
			Seed: 6, Workers: 1, SampleSize: 300,
			MaxIterations: 60, GammaStallWindow: 1000, StallC: 1000,
		},
	}
	standalone := jobs.New(jobs.Options{Workers: 1})
	t.Cleanup(func() { standalone.Shutdown(context.Background()) })
	ref, err := standalone.Submit(req)
	if err != nil {
		t.Fatalf("standalone Submit: %v", err)
	}
	for info := ref; !api.TerminalState(info.State); {
		if info, err = standalone.WaitInfo(context.Background(), ref.ID, info.State); err != nil {
			t.Fatalf("standalone WaitInfo: %v", err)
		}
	}
	want, err := standalone.Result(ref.ID)
	if err != nil {
		t.Fatalf("standalone Result: %v", err)
	}

	for _, old := range []bool{false, true} {
		name := "long-poll worker"
		if old {
			name = "worker without long-poll"
		}
		t.Run(name, func(t *testing.T) {
			counter := &callCounter{stripQuery: old}
			w := startWorker(t, jobs.Options{Workers: 1}, counter)
			co := newTestCoordinator(t, []*testWorker{w}, Options{PollInterval: poll, CheckpointEvery: 1})
			start := time.Now()
			info, err := co.Submit(req)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			final := waitDone(t, co, info.ID)
			elapsed := time.Since(start)
			if final.State != api.StateDone {
				t.Fatalf("job ended %q (error %q)", final.State, final.Error)
			}
			res, err := co.Result(info.ID)
			if err != nil {
				t.Fatalf("Result: %v", err)
			}
			if !reflect.DeepEqual(res.Mapping, want.Mapping) || res.Exec != want.Exec {
				t.Fatal("routed result differs from the standalone solve")
			}
			periods := int64(elapsed / poll)
			if n := counter.status.Load(); n > periods+2 {
				t.Errorf("%d status calls in %v (%d poll intervals), want at most %d", n, elapsed, periods, periods+2)
			}
			if n := counter.checkpoints.Load(); n > periods+1 {
				t.Errorf("%d checkpoint calls in %v (%d poll intervals), want at most %d", n, elapsed, periods, periods+1)
			}
			t.Logf("%v: %d status, %d checkpoint calls over %d intervals", elapsed, counter.status.Load(), counter.checkpoints.Load(), periods)
		})
	}
}

// TestCoordinatorRetriesBusyWorker: a worker whose queue is full answers
// a routed submission with 503. That is an answer, not a transport
// failure: the coordinator retries at PollInterval until the queue
// frees, and the worker is never marked down.
func TestCoordinatorRetriesBusyWorker(t *testing.T) {
	w := startWorker(t, jobs.Options{Workers: 1, QueueCapacity: 1}, nil)
	co := newTestCoordinator(t, []*testWorker{w}, Options{})

	long := api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000}
	blocker, err := w.m.Submit(api.SubmitRequest{Instance: instanceJSON(t, 21, 28), Solver: api.SolverMaTCH, Options: long})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	if _, err := w.m.WaitInfo(context.Background(), blocker.ID, api.StateQueued); err != nil {
		t.Fatalf("WaitInfo: %v", err)
	}
	filler, err := w.m.Submit(api.SubmitRequest{Instance: instanceJSON(t, 22, 8), Solver: api.SolverMaTCH, Options: long})
	if err != nil {
		t.Fatalf("Submit filler: %v", err)
	}

	info, err := co.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 23, 8),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 3, Workers: 1, MaxIterations: 20},
	})
	if err != nil {
		t.Fatalf("coordinator Submit: %v", err)
	}
	// Let the coordinator meet several 503s before the queue frees.
	const busy = `matchd_http_requests_total{route="POST /v1/jobs",method="POST",code="503"}`
	deadline := time.Now().Add(10 * time.Second)
	for {
		var buf bytes.Buffer
		if err := w.m.Registry().WritePrometheus(&buf); err != nil {
			t.Fatalf("worker WritePrometheus: %v", err)
		}
		if metricValue(t, buf.String(), busy) >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never retried its submission to the busy worker")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range []string{filler.ID, blocker.ID} {
		if _, err := w.m.Cancel(id); err != nil {
			t.Fatalf("Cancel %s: %v", id, err)
		}
	}

	if final := waitDone(t, co, info.ID); final.State != api.StateDone {
		t.Fatalf("job ended %q (error %q)", final.State, final.Error)
	}
	text := coordinatorMetrics(t, co)
	if up := metricValue(t, text, `matchd_cluster_worker_up{worker="`+w.ts.URL+`"}`); up != 1 {
		t.Errorf("matchd_cluster_worker_up = %v, want 1", up)
	}
	if n := metricValue(t, text, "matchd_cluster_rebalance_total"); n != 0 {
		t.Errorf("matchd_cluster_rebalance_total = %v, want 0", n)
	}
}
