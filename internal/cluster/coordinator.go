package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/client"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
)

// ErrUnknownWorker reports a drain request naming a worker the
// coordinator does not route to. Job lookups and submissions fail with
// the package jobs sentinels, so both tiers share one HTTP status
// mapping.
var ErrUnknownWorker = errors.New("cluster: unknown worker")

// Options tunes a Coordinator. Zero values take the documented defaults.
type Options struct {
	// Workers are the base URLs of the worker matchd nodes ("http://...").
	// Required; the set is fixed for the coordinator's lifetime (dead
	// workers are routed around, not removed from the ring).
	Workers []string
	// Replicas is the virtual-node count per worker on the hash ring;
	// default 128.
	Replicas int
	// CacheCapacity bounds the coordinator-level result cache (entries);
	// default 256. Negative disables it.
	CacheCapacity int
	// StateDir, when non-empty, is where in-flight solves are journalled
	// so a restarted coordinator re-attaches to (or re-routes) them.
	StateDir string
	// CheckpointEvery is the export cadence (CE iterations) injected into
	// routed plain match jobs so a dead worker's solves can be handed off
	// mid-run; default 5. A submission's own CheckpointEvery wins.
	CheckpointEvery int
	// PollInterval is the checkpoint-refresh and retry cadence; default
	// 200ms. Completion is seen at once: each worker status call is a
	// long-poll the worker answers as soon as the job's state changes.
	PollInterval time.Duration
	// HealthEvery is the down-worker recovery probe cadence; default 1s.
	HealthEvery time.Duration
	// CallTimeout bounds every worker HTTP call; default 10s.
	CallTimeout time.Duration
	// FailureThreshold is the number of consecutive transport failures
	// that marks a worker down; default 3.
	FailureThreshold int
	// HTTPClient, when non-nil, underlies every worker client.
	HTTPClient *http.Client
	// Metrics, when non-nil, is the registry the coordinator instruments.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, traces every coordinator job and propagates
	// its context to the worker solving it (one trace ID end to end).
	Tracer *telemetry.Tracer
	// Logger receives structured lifecycle logs. Silent by default.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 256
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 5
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 200 * time.Millisecond
	}
	if o.HealthEvery <= 0 {
		o.HealthEvery = time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// clusterMetrics holds the registry instruments the coordinator updates.
type clusterMetrics struct {
	submitted      *telemetry.Counter
	routed         *telemetry.CounterVec
	singleflight   *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	handoffs       *telemetry.CounterVec
	handoffSeconds *telemetry.Histogram
	rebalance      *telemetry.Counter
	workerUp       *telemetry.GaugeVec
	jobsByState    *telemetry.GaugeVec
	retired        *telemetry.Counter
	jobSeconds     *telemetry.HistogramVec
}

func newClusterMetrics(reg *telemetry.Registry) *clusterMetrics {
	return &clusterMetrics{
		submitted: reg.Counter("matchd_cluster_jobs_submitted_total",
			"Jobs submitted to the coordinator since start."),
		routed: reg.CounterVec("matchd_cluster_routed_total",
			"Solves routed to a worker, by worker base URL (re-routes count again).", "worker"),
		singleflight: reg.Counter("matchd_cluster_singleflight_hits_total",
			"Submissions collapsed onto an already in-flight identical solve."),
		cacheHits: reg.Counter("matchd_cluster_cache_hits_total",
			"Submissions answered from the coordinator result cache."),
		cacheMisses: reg.Counter("matchd_cluster_cache_misses_total",
			"Submissions that missed the coordinator result cache."),
		handoffs: reg.CounterVec("matchd_cluster_handoffs_total",
			"Solve re-routes away from a worker, by reason (worker-down, worker-restart, worker-retired, drain, worker-removed).", "reason"),
		handoffSeconds: reg.Histogram("matchd_cluster_handoff_seconds",
			"Latency from deciding to hand a solve off to its acceptance by the replacement worker.",
			telemetry.ExpBuckets(1e-3, 4, 8)),
		rebalance: reg.Counter("matchd_cluster_rebalance_total",
			"Routing-table changes: workers marked down plus workers recovered."),
		workerUp: reg.GaugeVec("matchd_cluster_worker_up",
			"1 while the coordinator routes to the worker, 0 while it is marked down.", "worker"),
		jobsByState: reg.GaugeVec("matchd_cluster_jobs",
			"Coordinator jobs by lifecycle state.", "state"),
		retired: reg.Counter("matchd_cluster_jobs_retired_total",
			"Finished coordinator jobs retired from the store."),
		jobSeconds: reg.HistogramVec("matchd_cluster_job_seconds",
			"Submit-to-finish coordinator job latency by terminal state.",
			telemetry.ExpBuckets(1e-3, 4, 10), "state"),
	}
}

// flight is one distinct solve in flight on a worker: the collapse point
// for identical submissions and the unit of journalling and handoff.
// Fields are guarded by Coordinator.mu except id/key/req (immutable) and
// jmu (the journal-file lock).
type flight struct {
	id  string
	key string
	req api.SubmitRequest // original submission (Checkpoint kept verbatim)

	worker      string // "" while unassigned
	workerJobID string
	lastState   string // last observed worker-side state

	// checkpoint is the freshest resumable checkpoint polled off the
	// worker (or carried by the original submission); a handoff resubmits
	// it so the replacement worker resumes instead of restarting.
	checkpoint      []byte
	checkpointIters int

	attached  []*cjob
	tp        string // traceparent forwarded to the worker submission
	abandoned bool   // every attached job was cancelled
	finished  bool
	dirty     bool // journal out of date

	jmu sync.Mutex // serialises journal file writes/removal
}

// cjob is one coordinator job: a client-visible handle attached to a
// flight (many jobs may share one). Guarded by Coordinator.mu.
type cjob struct {
	id     string
	key    string
	solver string

	state    string
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	cacheHit bool
	resumed  bool
	worker   string

	result *api.JobResult
	flight *flight

	traceID string
	span    *telemetry.Span
}

// Coordinator routes submissions across a fixed set of worker matchd
// nodes. See the package documentation for the full design.
type Coordinator struct {
	opts Options
	ring *Ring

	clients map[string]*client.Client

	mu         sync.Mutex
	closed     bool
	jobs       map[string]*cjob
	flights    map[string]*flight // by flight id; active flights only
	byKey      map[string]*flight // active flights by content address
	down       map[string]bool
	failures   map[string]int
	cache      *jobs.ResultCache
	retire     *jobs.Retirer
	stateCount map[string]int
	handoffs   uint64

	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	metrics *clusterMetrics
	log     *slog.Logger
}

// New builds a Coordinator over opts.Workers and starts its health
// prober. Call Restore to re-attach journalled flights, then serve it
// (package cluster's Server or direct method calls).
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	ring := NewRing(opts.Workers, opts.Replicas)
	if len(ring.Workers()) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one worker")
	}
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		opts:       opts,
		ring:       ring,
		clients:    make(map[string]*client.Client),
		jobs:       make(map[string]*cjob),
		flights:    make(map[string]*flight),
		byKey:      make(map[string]*flight),
		down:       make(map[string]bool),
		failures:   make(map[string]int),
		cache:      jobs.NewResultCache(opts.CacheCapacity),
		retire:     jobs.NewRetirer(jobs.RetainFinished, jobs.RetainFor),
		stateCount: make(map[string]int),
		baseCtx:    ctx,
		baseCancel: cancel,
		metrics:    newClusterMetrics(opts.Metrics),
		log:        opts.Logger,
	}
	for _, w := range ring.Workers() {
		co.clients[w] = client.New(w).WithHTTPClient(opts.HTTPClient)
		co.metrics.workerUp.With(w).Set(1)
	}
	reg := opts.Metrics
	reg.GaugeFunc("matchd_cluster_flights", "Distinct solves currently in flight (after singleflight collapsing).",
		func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			return float64(len(co.flights))
		})
	reg.GaugeFunc("matchd_cluster_workers", "Workers on the routing ring.",
		func() float64 { return float64(len(ring.Workers())) })
	reg.GaugeFunc("matchd_cluster_cache_entries", "Entries held by the coordinator result cache.",
		func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			return float64(co.cache.Len())
		})
	start := time.Now()
	reg.GaugeFunc("matchd_cluster_uptime_seconds", "Seconds since the coordinator started.",
		func() float64 { return time.Since(start).Seconds() })
	if tr := opts.Tracer; tr != nil {
		reg.GaugeFunc("matchd_trace_spans_started_total", "Spans started by the tracer.",
			func() float64 { return float64(tr.Started()) })
		reg.GaugeFunc("matchd_trace_spans_finished_total", "Spans finished by the tracer.",
			func() float64 { return float64(tr.Finished()) })
		reg.GaugeFunc("matchd_trace_spans_open", "Spans started but not yet finished (a steady nonzero residue with no work in flight indicates a span leak).",
			func() float64 { return float64(tr.OpenSpans()) })
	}
	co.wg.Add(1)
	go co.probeLoop()
	return co, nil
}

func newCJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("c%016x", time.Now().UnixNano())
	}
	return "c" + hex.EncodeToString(b[:])
}

func newFlightID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("f%016x", time.Now().UnixNano())
	}
	return "f" + hex.EncodeToString(b[:])
}

// checkpointable reports whether a routed job can export and resume
// checkpoints: only plain (non-multilevel, non-island) match solves.
func checkpointable(req api.SubmitRequest) bool {
	return req.Solver == api.SolverMaTCH && !req.Options.Multilevel && req.Options.Islands <= 1
}

// Submit routes a submission: cache hit → an already-done job;
// identical in-flight solve → attach (singleflight); otherwise a new
// flight is journalled and dispatched to the key's ring worker.
func (co *Coordinator) Submit(req api.SubmitRequest) (api.JobInfo, error) {
	return co.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with a caller context, used only for trace
// propagation (the HTTP layer puts the request's server span there).
func (co *Coordinator) SubmitCtx(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error) {
	// The worker's front door, so a bad handoff document is a 400 here
	// rather than a failed flight later, and a dropped checkpoint never
	// reaches the worker.
	problem, _, key, err := jobs.Admit(&req, co.log)
	if err != nil {
		return api.JobInfo{}, err
	}

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return api.JobInfo{}, jobs.ErrShuttingDown
	}
	j := &cjob{id: newCJobID(), key: key, solver: req.Solver, state: api.StateQueued, created: time.Now()}
	for co.jobs[j.id] != nil {
		j.id = newCJobID()
	}
	co.metrics.submitted.Inc()

	if cached, ok := co.cache.Get(key); ok {
		co.metrics.cacheHits.Inc()
		j.state = api.StateDone
		j.started, j.finished = j.created, j.created
		j.cacheHit = true
		res := cached
		res.CacheHit = true
		j.result = &res
		co.registerLocked(j)
		co.startJobSpanLocked(ctx, j, problem)
		j.span.Event("cache-hit", "key", key)
		j.span.SetStatus("ok")
		j.span.End()
		co.metrics.jobSeconds.With(j.state).ObserveExemplar(0, j.traceID)
		co.retireLocked(j)
		info := co.infoLocked(j)
		co.mu.Unlock()
		co.log.Info("cluster job served from cache", "id", j.id, "key", key)
		return info, nil
	}
	co.metrics.cacheMisses.Inc()
	if f := co.byKey[key]; f != nil && !f.finished {
		// Singleflight: ride the identical in-flight solve.
		co.registerLocked(j)
		co.startJobSpanLocked(ctx, j, problem)
		j.span.Event("singleflight", "flight", f.id, "worker", f.worker)
		j.flight = f
		f.attached = append(f.attached, j)
		if f.lastState == api.StateRunning {
			co.setStateLocked(j, api.StateRunning)
			j.started = time.Now()
		}
		f.dirty = true
		co.metrics.singleflight.Inc()
		info := co.infoLocked(j)
		co.mu.Unlock()
		co.writeJournal(f)
		co.log.Info("cluster job collapsed onto in-flight solve", "id", j.id, "flight", f.id, "key", key)
		return info, nil
	}

	f := &flight{
		id:         newFlightID(),
		key:        key,
		req:        req,
		checkpoint: req.Checkpoint,
		attached:   []*cjob{j},
		lastState:  api.StateQueued,
		dirty:      true,
	}
	j.flight = f
	co.registerLocked(j)
	co.startJobSpanLocked(ctx, j, problem)
	f.tp = j.span.Traceparent()
	co.flights[f.id] = f
	co.byKey[key] = f
	co.wg.Add(1)
	info := co.infoLocked(j)
	co.mu.Unlock()
	co.writeJournal(f)
	go co.runFlight(f)
	co.log.Info("cluster job queued", "id", j.id, "flight", f.id, "key", key,
		"solver", req.Solver, "resume", len(req.Checkpoint) > 0)
	return info, nil
}

// startJobSpanLocked opens the job's root span (a child of the span
// carried by ctx, if any). No-op without a tracer. Caller holds mu.
func (co *Coordinator) startJobSpanLocked(ctx context.Context, j *cjob, problem *matchsim.Problem) {
	if co.opts.Tracer == nil {
		return
	}
	_, span := co.opts.Tracer.StartSpan(ctx, "cluster-job")
	span.SetAttr("job_id", j.id)
	span.SetAttr("solver", j.solver)
	if problem != nil {
		span.SetAttrInt("tasks", int64(problem.NumTasks()))
	}
	j.span = span
	j.traceID = span.TraceID()
}

// registerLocked files the job in the store. Caller holds mu.
func (co *Coordinator) registerLocked(j *cjob) {
	co.jobs[j.id] = j
	co.stateCount[j.state]++
	co.metrics.jobsByState.With(j.state).Add(1)
}

// setStateLocked moves a job between lifecycle states. Caller holds mu.
func (co *Coordinator) setStateLocked(j *cjob, state string) {
	co.stateCount[j.state]--
	co.metrics.jobsByState.With(j.state).Add(-1)
	j.state = state
	co.stateCount[state]++
	co.metrics.jobsByState.With(state).Add(1)
}

// finalizeJobLocked moves a job into a terminal state, closes its span
// and files it for retirement. Caller holds mu.
func (co *Coordinator) finalizeJobLocked(j *cjob, state string) {
	if api.TerminalState(j.state) {
		return
	}
	co.setStateLocked(j, state)
	j.finished = time.Now()
	status := "ok"
	switch state {
	case api.StateFailed:
		status = "error"
	case api.StateCancelled:
		status = "cancelled"
	}
	if j.errMsg != "" {
		j.span.SetAttr("error", j.errMsg)
	}
	j.span.SetAttr("state", state)
	if j.worker != "" {
		j.span.SetAttr("worker", j.worker)
	}
	j.span.SetStatus(status)
	j.span.End()
	co.metrics.jobSeconds.With(state).ObserveExemplar(j.finished.Sub(j.created).Seconds(), j.traceID)
	co.retireLocked(j)
}

// retireLocked drops a finished job's ended span and retires whichever
// finished jobs the retention rule no longer keeps. Caller holds mu.
func (co *Coordinator) retireLocked(j *cjob) {
	j.span = nil
	co.retire.Finished(j.id, j.finished)
	co.expireLocked(j.finished)
}

// expireLocked removes the finished jobs the retention rule retires at
// now. Caller holds mu.
func (co *Coordinator) expireLocked(now time.Time) {
	co.retire.Expire(now, func(id string) {
		j := co.jobs[id]
		delete(co.jobs, id)
		co.stateCount[j.state]--
		co.metrics.jobsByState.With(j.state).Add(-1)
		co.metrics.retired.Inc()
	})
}

// lookupLocked finds a job, first retiring the finished jobs past the
// age cap; a missing id is jobs.ErrRetiredJob when it was retired
// recently, else jobs.ErrUnknownJob. Caller holds mu.
func (co *Coordinator) lookupLocked(id string) (*cjob, error) {
	co.expireLocked(time.Now())
	if j := co.jobs[id]; j != nil {
		return j, nil
	}
	if co.retire.Retired(id) {
		return nil, jobs.ErrRetiredJob
	}
	return nil, jobs.ErrUnknownJob
}

func (co *Coordinator) infoLocked(j *cjob) api.JobInfo {
	worker := j.worker
	if worker == "" && j.flight != nil {
		worker = j.flight.worker
	}
	return api.JobInfo{
		ID:       j.id,
		State:    j.state,
		Solver:   j.solver,
		Key:      j.key,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Error:    j.errMsg,
		CacheHit: j.cacheHit,
		Resumed:  j.resumed,
		TraceID:  j.traceID,
		Worker:   worker,
	}
}

// Info returns a job's status document.
func (co *Coordinator) Info(id string) (api.JobInfo, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, err := co.lookupLocked(id)
	if err != nil {
		return api.JobInfo{}, err
	}
	return co.infoLocked(j), nil
}

// WaitInfo is Info: the coordinator answers a long-poll status request at
// once. The hold happens on the workers, which the coordinator itself
// long-polls.
func (co *Coordinator) WaitInfo(_ context.Context, id, _ string) (api.JobInfo, error) {
	return co.Info(id)
}

// Result returns a finished job's result.
func (co *Coordinator) Result(id string) (api.JobResult, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, err := co.lookupLocked(id)
	if err != nil {
		return api.JobResult{}, err
	}
	if j.result == nil || j.state != api.StateDone {
		return api.JobResult{}, fmt.Errorf("%w (state %s)", jobs.ErrNotDone, j.state)
	}
	return *j.result, nil
}

// Cancel detaches a job from its flight. The worker solve itself is
// cancelled only when the last attached job lets go — other submitters
// riding the same flight keep their answer.
func (co *Coordinator) Cancel(id string) (api.JobInfo, error) {
	co.mu.Lock()
	j, err := co.lookupLocked(id)
	if err != nil {
		co.mu.Unlock()
		return api.JobInfo{}, err
	}
	if api.TerminalState(j.state) {
		info := co.infoLocked(j)
		co.mu.Unlock()
		return info, nil
	}
	f := j.flight
	if f != nil {
		kept := f.attached[:0]
		for _, a := range f.attached {
			if a != j {
				kept = append(kept, a)
			}
		}
		f.attached = kept
		if len(f.attached) == 0 {
			f.abandoned = true
		}
		f.dirty = true
	}
	j.errMsg = "cancelled"
	co.finalizeJobLocked(j, api.StateCancelled)
	info := co.infoLocked(j)
	co.mu.Unlock()
	co.log.Info("cluster job cancelled", "id", id)
	return info, nil
}

// Status assembles the topology document served at GET /v1/cluster.
// CheckpointIters reports the iteration stamp of the freshest handoff
// checkpoint held for the job's flight. Operators (and the failover
// harness) use it to know a worker can be taken down without losing the
// solve's progress; ok is false while nothing has been captured yet or
// once the flight is finished.
func (co *Coordinator) CheckpointIters(id string) (iters int, ok bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j := co.jobs[id]
	if j == nil || j.flight == nil || j.flight.finished {
		return 0, false
	}
	return j.flight.checkpointIters, j.flight.checkpointIters > 0
}

func (co *Coordinator) Status() api.ClusterStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	perWorker := make(map[string]int)
	for _, f := range co.flights {
		if f.worker != "" {
			perWorker[f.worker]++
		}
	}
	st := api.ClusterStatus{
		Flights:  len(co.flights),
		Jobs:     make(map[string]int),
		Handoffs: co.handoffs,
	}
	for s, c := range co.stateCount {
		if c > 0 {
			st.Jobs[s] = c
		}
	}
	workers := co.ring.Workers()
	sort.Strings(workers)
	for _, w := range workers {
		st.Workers = append(st.Workers, api.ClusterWorker{
			URL: w, Up: !co.down[w], Flights: perWorker[w],
		})
	}
	return st
}

// DrainWorker stops routing to a worker and hands its in-flight solves
// off to the survivors: each routed job is cancelled on the worker, its
// final checkpoint collected, and the solve resumed elsewhere.
func (co *Coordinator) DrainWorker(worker string) error {
	co.mu.Lock()
	if _, ok := co.clients[worker]; !ok {
		co.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownWorker, worker)
	}
	if !co.down[worker] {
		co.down[worker] = true
		co.metrics.rebalance.Inc()
		co.metrics.workerUp.With(worker).Set(0)
	}
	var cancelIDs []string
	for _, f := range co.flights {
		if f.worker == worker && f.workerJobID != "" {
			cancelIDs = append(cancelIDs, f.workerJobID)
		}
	}
	co.mu.Unlock()
	co.log.Info("draining worker", "worker", worker, "flights", len(cancelIDs))
	cl := co.clients[worker]
	for _, id := range cancelIDs {
		ctx, cancel := co.callCtx()
		_, err := cl.Cancel(ctx, id)
		cancel()
		if err != nil {
			co.log.Warn("drain: cancelling worker job failed", "worker", worker, "job", id, "error", err)
		}
	}
	return nil
}

// Closed reports whether Shutdown has begun.
func (co *Coordinator) Closed() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.closed
}

// Registry exposes the telemetry registry the coordinator instruments.
func (co *Coordinator) Registry() *telemetry.Registry { return co.opts.Metrics }

// Tracer exposes the coordinator's tracer (nil when tracing is off).
func (co *Coordinator) Tracer() *telemetry.Tracer { return co.opts.Tracer }

// Logger exposes the coordinator's structured logger.
func (co *Coordinator) Logger() *slog.Logger { return co.log }

// Readiness evaluates the coordinator's readiness: at least one live
// worker, and the journal directory (when configured) writable.
func (co *Coordinator) Readiness() (bool, []api.ReadyCheck) {
	co.mu.Lock()
	closed := co.closed
	live := 0
	for _, w := range co.ring.Workers() {
		if !co.down[w] {
			live++
		}
	}
	co.mu.Unlock()

	checks := []api.ReadyCheck{{
		Name: "workers", OK: !closed && live > 0,
		Detail: fmt.Sprintf("%d/%d live", live, len(co.ring.Workers())),
	}}
	if closed {
		checks[0].Detail = "shutting down"
	}
	if dir := co.opts.StateDir; dir != "" {
		cc := api.ReadyCheck{Name: "state_dir", OK: true, Detail: dir}
		if err := probeWritableDir(dir); err != nil {
			cc.OK = false
			cc.Detail = err.Error()
		}
		checks = append(checks, cc)
	}
	ready := true
	for _, c := range checks {
		ready = ready && c.OK
	}
	return ready, checks
}

// Shutdown stops the coordinator: submissions are refused, flight
// watchers stop (their journals stay on disk so a restarted coordinator
// re-attaches via Restore), and open job spans are closed.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil
	}
	co.closed = true
	co.mu.Unlock()
	co.baseCancel()

	done := make(chan struct{})
	go func() {
		co.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("cluster: shutdown timed out: %w", ctx.Err())
	}

	co.mu.Lock()
	for _, j := range co.jobs {
		if !api.TerminalState(j.state) && j.span != nil {
			j.span.SetStatus("interrupted")
			j.span.End()
		}
	}
	co.mu.Unlock()
	return nil
}

// ---- flight supervision ----

type flightOutcome int

const (
	flightDone flightOutcome = iota
	flightFailed
	flightDiscarded
	flightShutdown
	flightRescue
)

func (co *Coordinator) callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(co.baseCtx, co.opts.CallTimeout)
}

// sleepCtx waits d or until ctx ends; false means the context fired.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// runFlight is the per-flight watcher goroutine: route the solve to its
// ring worker, poll it to completion, and re-route (resuming from the
// freshest checkpoint) whenever the worker dies, restarts, or drains.
func (co *Coordinator) runFlight(f *flight) {
	defer co.wg.Done()
	var rescueStart time.Time
	for {
		if co.baseCtx.Err() != nil {
			return
		}
		if co.flightAbandoned(f) {
			co.discardFlight(f)
			return
		}
		if co.flightWorker(f) == "" {
			worker, ok := co.pickWorker(f.key)
			if !ok {
				co.log.Warn("no live workers; flight waiting", "flight", f.id)
				if !sleepCtx(co.baseCtx, co.opts.PollInterval) {
					return
				}
				continue
			}
			req := co.buildWorkerRequest(f)
			ctx, cancel := co.callCtx()
			if tp := f.tp; tp != "" {
				ctx = client.ContextWithTraceparent(ctx, tp)
			}
			info, err := co.clients[worker].Submit(ctx, req)
			cancel()
			if err != nil {
				if co.baseCtx.Err() != nil {
					return
				}
				var apiErr *api.Error
				if errors.As(err, &apiErr) {
					// Any answer means the worker is up; only transport
					// errors count towards marking it down.
					co.noteSuccess(worker)
					if apiErr.Status >= 400 && apiErr.Status < 500 {
						// The worker understood us and said no: retrying
						// on another node cannot help.
						co.failFlight(f, fmt.Sprintf("worker %s rejected submission: %v", worker, apiErr.Message))
						return
					}
					// A 5xx (queue full, shutting down) is retried below.
				} else {
					co.noteFailure(worker)
				}
				if !sleepCtx(co.baseCtx, co.opts.PollInterval) {
					return
				}
				continue
			}
			co.noteSuccess(worker)
			co.assignFlight(f, worker, info.ID, rescueStart)
			rescueStart = time.Time{}
		}
		outcome, reason := co.pollFlight(f)
		switch outcome {
		case flightDone, flightFailed, flightDiscarded, flightShutdown:
			return
		case flightRescue:
			rescueStart = time.Now()
			co.beginRescue(f, reason)
		}
	}
}

// buildWorkerRequest derives the submission routed to a worker: the
// original request, plus the freshest checkpoint (handoffs resume, not
// restart) and the injected export cadence for checkpointable solves.
func (co *Coordinator) buildWorkerRequest(f *flight) api.SubmitRequest {
	co.mu.Lock()
	defer co.mu.Unlock()
	req := f.req
	if len(f.checkpoint) > 0 {
		req.Checkpoint = f.checkpoint
	}
	if checkpointable(req) {
		if req.CheckpointEvery <= 0 {
			req.CheckpointEvery = co.opts.CheckpointEvery
		}
	} else {
		req.CheckpointEvery = 0
	}
	return req
}

func (co *Coordinator) flightWorker(f *flight) string {
	co.mu.Lock()
	defer co.mu.Unlock()
	return f.worker
}

func (co *Coordinator) flightState(f *flight) string {
	co.mu.Lock()
	defer co.mu.Unlock()
	return f.lastState
}

func (co *Coordinator) flightJobID(f *flight) string {
	co.mu.Lock()
	defer co.mu.Unlock()
	return f.workerJobID
}

func (co *Coordinator) flightAbandoned(f *flight) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return f.abandoned
}

func (co *Coordinator) pickWorker(key string) (string, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.ring.LookupExcluding(key, co.down)
}

// assignFlight records a successful worker submission.
func (co *Coordinator) assignFlight(f *flight, worker, workerJobID string, rescueStart time.Time) {
	co.mu.Lock()
	f.worker = worker
	f.workerJobID = workerJobID
	f.lastState = api.StateQueued
	f.dirty = true
	co.metrics.routed.With(worker).Inc()
	if !rescueStart.IsZero() {
		co.metrics.handoffSeconds.Observe(time.Since(rescueStart).Seconds())
	}
	for _, j := range f.attached {
		j.span.Event("routed", "worker", worker, "worker_job", workerJobID)
	}
	co.mu.Unlock()
	co.writeJournal(f)
	co.log.Info("flight routed", "flight", f.id, "worker", worker, "worker_job", workerJobID,
		"resume", len(f.checkpoint) > 0)
}

// beginRescue detaches the flight from its worker so the watcher loop
// re-routes it; a checkpoint-carrying rescue resumes mid-solve.
func (co *Coordinator) beginRescue(f *flight, reason string) {
	co.mu.Lock()
	f.worker = ""
	f.workerJobID = ""
	f.lastState = api.StateQueued
	f.dirty = true
	co.handoffs++
	co.metrics.handoffs.With(reason).Inc()
	iters := f.checkpointIters
	for _, j := range f.attached {
		j.span.Event("handoff", "reason", reason, "checkpoint_iters", fmt.Sprint(iters))
	}
	co.mu.Unlock()
	co.writeJournal(f)
	co.log.Warn("flight handed off", "flight", f.id, "reason", reason, "checkpoint_iters", iters)
}

// pollFlight tracks an assigned flight on its worker until a terminal
// outcome or a condition that forces a re-route. Each status call is a
// long-poll the worker holds until the job leaves the state the flight
// last saw, or for up to PollInterval, so a finished solve is seen at
// once. A call that brings nothing new (the hold ran out, a worker that
// predates the long-poll answered at once, or the call failed) is
// followed by a pause for the rest of the interval: while a job runs its
// worker sees at most one status and one checkpoint call per
// PollInterval.
func (co *Coordinator) pollFlight(f *flight) (flightOutcome, string) {
	worker := co.flightWorker(f)
	cl := co.clients[worker]
	if cl == nil {
		// A journalled flight from a previous configuration whose worker
		// is no longer on the ring.
		return flightRescue, "worker-removed"
	}
	// The hold must end well inside the call's own timeout.
	wait := min(co.opts.PollInterval, co.opts.CallTimeout/2)
	for {
		if co.flightAbandoned(f) {
			co.discardFlight(f)
			return flightDiscarded, ""
		}
		co.maybeWriteJournal(f)
		seen := co.flightState(f)
		next := time.Now().Add(co.opts.PollInterval)
		ctx, cancel := co.callCtx()
		info, err := cl.InfoWait(ctx, co.flightJobID(f), seen, wait)
		cancel()
		if err != nil {
			if co.baseCtx.Err() != nil {
				return flightShutdown, ""
			}
			var apiErr *api.Error
			if !errors.As(err, &apiErr) {
				co.noteFailure(worker)
				if co.workerDown(worker) {
					return flightRescue, "worker-down"
				}
			} else {
				co.noteSuccess(worker)
				if apiErr.Code == api.CodeJobRetired {
					// The worker finished the job and retired it before
					// this flight saw the result. Resubmit: the worker's
					// result cache normally answers at once.
					return flightRescue, "worker-retired"
				}
				if apiErr.Status == http.StatusNotFound {
					// The worker is up but no longer knows the job: it
					// restarted and lost its store. Resubmit (with the
					// freshest checkpoint when one was exported).
					return flightRescue, "worker-restart"
				}
				// Other HTTP errors are transient: keep polling.
			}
		} else {
			co.noteSuccess(worker)
			switch info.State {
			case api.StateRunning:
				if seen != api.StateRunning {
					co.observeRunning(f)
					continue
				}
				co.refreshCheckpoint(cl, f)
			case api.StateDone:
				res, rerr := co.fetchResult(cl, f)
				if rerr == nil {
					co.completeFlight(f, info, res)
					return flightDone, ""
				}
				if co.baseCtx.Err() != nil {
					return flightShutdown, ""
				}
				// Transient; the next pass re-observes done.
				next = time.Now().Add(co.opts.PollInterval)
			case api.StateFailed:
				co.failFlight(f, info.Error)
				return flightFailed, ""
			case api.StateCancelled:
				if co.flightAbandoned(f) {
					co.discardFlight(f)
					return flightDiscarded, ""
				}
				// Cancelled out from under us: a drain (ours) or an
				// operator acting on the worker directly. Collect the
				// final interrupted-state checkpoint and resume elsewhere.
				ctx, ccancel := co.callCtx()
				doc, cerr := cl.Checkpoint(ctx, co.flightJobID(f))
				ccancel()
				if cerr == nil {
					co.adoptCheckpoint(f, doc.Checkpoint, doc.Iterations)
				}
				return flightRescue, "drain"
			}
		}
		if d := time.Until(next); d > 0 && !sleepCtx(co.baseCtx, d) {
			return flightShutdown, ""
		}
	}
}

// refreshCheckpoint polls the worker's mid-run checkpoint export and
// keeps the freshest one for handoff. Only checkpointable solves export;
// a 404 simply means no iterations have completed yet.
func (co *Coordinator) refreshCheckpoint(cl *client.Client, f *flight) {
	if !checkpointable(f.req) {
		return
	}
	ctx, cancel := co.callCtx()
	doc, err := cl.Checkpoint(ctx, co.flightJobID(f))
	cancel()
	if err != nil {
		return
	}
	co.adoptCheckpoint(f, doc.Checkpoint, doc.Iterations)
}

// adoptCheckpoint keeps a polled checkpoint when it advances on what the
// flight already holds.
func (co *Coordinator) adoptCheckpoint(f *flight, checkpoint []byte, iters int) {
	if len(checkpoint) == 0 {
		return
	}
	co.mu.Lock()
	if iters > f.checkpointIters || len(f.checkpoint) == 0 {
		f.checkpoint = checkpoint
		f.checkpointIters = iters
		f.dirty = true
	}
	co.mu.Unlock()
}

// observeRunning flips the flight's attached jobs to running the first
// time the worker reports the solve started.
func (co *Coordinator) observeRunning(f *flight) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if f.lastState == api.StateRunning {
		return
	}
	f.lastState = api.StateRunning
	now := time.Now()
	for _, j := range f.attached {
		if j.state == api.StateQueued {
			co.setStateLocked(j, api.StateRunning)
			if j.started.IsZero() {
				j.started = now
			}
		}
	}
}

func (co *Coordinator) fetchResult(cl *client.Client, f *flight) (api.JobResult, error) {
	ctx, cancel := co.callCtx()
	defer cancel()
	return cl.Result(ctx, co.flightJobID(f))
}

// completeFlight finalises every attached job with the worker's result
// and feeds the coordinator cache. Resumes are exact, so a rescued
// flight's result is the fresh solve's and is cached like any other.
func (co *Coordinator) completeFlight(f *flight, info api.JobInfo, res api.JobResult) {
	co.mu.Lock()
	co.cache.Put(f.key, res)
	for _, j := range f.attached {
		r := res
		r.Mapping = append([]int(nil), res.Mapping...)
		j.result = &r
		j.worker = f.worker
		j.resumed = info.Resumed
		co.finalizeJobLocked(j, api.StateDone)
	}
	co.endFlightLocked(f)
	co.mu.Unlock()
	co.removeJournal(f)
	co.log.Info("flight done", "flight", f.id, "worker", f.worker,
		"exec", res.Exec, "resumed", info.Resumed)
}

// failFlight finalises every attached job as failed.
func (co *Coordinator) failFlight(f *flight, msg string) {
	co.mu.Lock()
	for _, j := range f.attached {
		j.errMsg = msg
		j.worker = f.worker
		co.finalizeJobLocked(j, api.StateFailed)
	}
	co.endFlightLocked(f)
	co.mu.Unlock()
	co.removeJournal(f)
	co.log.Error("flight failed", "flight", f.id, "error", msg)
}

// discardFlight drops an abandoned flight (every attached job already
// cancelled), cancelling the worker-side solve when one is assigned.
func (co *Coordinator) discardFlight(f *flight) {
	co.mu.Lock()
	worker, id := f.worker, f.workerJobID
	co.endFlightLocked(f)
	co.mu.Unlock()
	if worker != "" && id != "" {
		if cl := co.clients[worker]; cl != nil {
			ctx, cancel := co.callCtx()
			_, _ = cl.Cancel(ctx, id)
			cancel()
		}
	}
	co.removeJournal(f)
	co.log.Info("flight discarded", "flight", f.id)
}

// endFlightLocked marks a flight finished and drops it from the routing
// maps. Its finished jobs keep pointing at it for their worker, so it
// lets go of the submitted instance, the checkpoint bytes and the
// attached jobs. Runs on the flight's watcher, the only other reader of
// f.req. Caller holds mu.
func (co *Coordinator) endFlightLocked(f *flight) {
	f.finished = true
	delete(co.flights, f.id)
	if co.byKey[f.key] == f {
		delete(co.byKey, f.key)
	}
	f.req.Instance, f.req.Checkpoint, f.checkpoint = nil, nil, nil
	f.attached = nil
}

// ---- worker health ----

func (co *Coordinator) workerDown(w string) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.down[w]
}

// noteFailure counts one transport failure against a worker; crossing
// the threshold marks it down, and every flight routed there rescues
// itself on its next poll.
func (co *Coordinator) noteFailure(w string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.failures[w]++
	if co.failures[w] >= co.opts.FailureThreshold && !co.down[w] {
		co.down[w] = true
		co.metrics.rebalance.Inc()
		co.metrics.workerUp.With(w).Set(0)
		co.log.Warn("worker marked down", "worker", w, "failures", co.failures[w])
	}
}

// noteSuccess resets a worker's failure count; a response from a
// down-marked worker revives it.
func (co *Coordinator) noteSuccess(w string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.failures[w] = 0
	if co.down[w] {
		delete(co.down, w)
		co.metrics.rebalance.Inc()
		co.metrics.workerUp.With(w).Set(1)
		co.log.Info("worker recovered", "worker", w)
	}
}

// probeLoop pings down-marked workers and restores them to the routing
// table when they answer /healthz again.
func (co *Coordinator) probeLoop() {
	defer co.wg.Done()
	t := time.NewTicker(co.opts.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-co.baseCtx.Done():
			return
		case <-t.C:
		}
		co.mu.Lock()
		var probe []string
		for w := range co.down {
			probe = append(probe, w)
		}
		co.mu.Unlock()
		for _, w := range probe {
			ctx, cancel := co.callCtx()
			err := co.clients[w].Healthy(ctx)
			cancel()
			if err == nil {
				co.noteSuccess(w)
			}
		}
	}
}
