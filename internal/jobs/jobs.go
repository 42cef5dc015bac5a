// Package jobs is the serving layer behind matchd: a bounded submission
// queue, a worker pool that runs solver jobs with full lifecycle tracking
// (queued → running → done | failed | cancelled), a content-addressed
// result cache so identical submissions are answered without re-solving,
// live per-iteration progress fan-out to subscribers, and graceful
// shutdown that checkpoints interrupted CE jobs to disk so they resume
// after a restart.
//
// The Manager is the single coordination point. One mutex guards all job
// state; solver work itself runs outside the lock on the worker pool, so
// the lock is only ever held for map/flag updates and event fan-out.
package jobs

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/internal/island"
	"matchsim/internal/telemetry"
	"matchsim/internal/trace"
)

// Submission and lookup errors.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 503 at the API layer).
	ErrQueueFull = errors.New("jobs: submission queue full")
	// ErrShuttingDown rejects submissions during graceful shutdown.
	ErrShuttingDown = errors.New("jobs: manager shutting down")
	// ErrUnknownJob reports a lookup for an id the store does not hold.
	ErrUnknownJob = errors.New("jobs: unknown job id")
	// ErrNotDone reports a result request for an unfinished job.
	ErrNotDone = errors.New("jobs: job has no result yet")
	// ErrNoCheckpoint reports a checkpoint request for a job that has not
	// exported one (no CheckpointEvery, no iterations yet, or a solver
	// that does not checkpoint).
	ErrNoCheckpoint = errors.New("jobs: job has no checkpoint")
)

// Options tunes a Manager. Zero values take the documented defaults.
type Options struct {
	// QueueCapacity bounds the number of jobs waiting to run; default 64.
	QueueCapacity int
	// Workers is the number of jobs run concurrently; default GOMAXPROCS.
	// Each job additionally parallelises internally per its own Workers
	// option, so a loaded daemon usually wants few job workers.
	Workers int
	// CacheCapacity bounds the content-addressed result cache (entries);
	// default 128. 0 keeps the default; negative disables caching.
	CacheCapacity int
	// CheckpointDir, when non-empty, is where Shutdown persists
	// interrupted jobs and Restore finds them. The directory is created
	// on demand.
	CheckpointDir string
	// TraceWriter, when non-nil, additionally receives every job's
	// events on one shared stream (trace.Writer is concurrency-safe).
	TraceWriter *trace.Writer
	// Metrics, when non-nil, is the telemetry registry the manager
	// instruments (service gauges/counters plus solver internals). A
	// fresh registry is created by default; the HTTP layer serves
	// whichever registry the manager ends up with at /metrics.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, enables distributed tracing: every job gets
	// a root span (parented under the submitting HTTP request's span
	// when the context carries one) with queue and solve child spans,
	// per-iteration solver events, and trace-ID exemplars on the phase
	// and latency histograms. nil disables tracing at zero cost.
	Tracer *telemetry.Tracer
	// Logger, when non-nil, receives structured lifecycle logs (job
	// submitted/started/finished, shutdown). Silent by default.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 128
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// job is the manager-internal lifecycle record. All fields are guarded by
// Manager.mu except the immutable identity fields set before registration.
// A finished job keeps only what can still be read (see releaseLocked).
type job struct {
	id     string
	key    string
	solver string
	req    api.SubmitRequest
	// problem is parsed once at submission; tasks is its task count,
	// kept for the start event once the problem is released.
	problem *matchsim.Problem
	tasks   int

	state    string
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	cacheHit bool
	resumed  bool

	result     *api.JobResult
	resumeFrom *matchsim.Checkpoint // restored state for a resumed job
	checkpoint *matchsim.Checkpoint // captured when a run is interrupted
	exported   *matchsim.Checkpoint // latest mid-run export (CheckpointEvery)

	cancel        context.CancelFunc // non-nil while running
	userCancelled bool               // DELETE (vs shutdown) requested the cancel
	persistPath   string             // checkpoint file backing a restored job

	// Tracing state: the job's root span, its trace ID (stable once set,
	// readable without ending the span), and the queue/solve child
	// spans. All nil/empty when the manager runs without a tracer.
	traceID   string
	span      *telemetry.Span
	queueSpan *telemetry.Span
	solveSpan *telemetry.Span

	// The replayable history is the start event (once the job started),
	// the first MaxHistoryIters records of iters, rendered as iteration
	// events, and the end event (once the job finished). Both are
	// rendered from the job's state (startEvent, endEvent). The iteration
	// events emitted past the cap all fall between the last replayed one
	// and the end event. iters is nil until the job runs; its records are
	// also the solve span's "iter" events.
	iters  *telemetry.IterLog
	subs   map[int]chan api.Event
	subCtr int

	// changed is closed by the next state change and then cleared. It
	// exists only while WaitInfo callers are blocked on the job (counted
	// by waiters), so a job nobody waits on never allocates one.
	changed chan struct{}
	waiters int
}

// Manager owns the job store, queue, worker pool and result cache.
type Manager struct {
	opts Options

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool

	queue chan *job
	wg    sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	cache *ResultCache

	// retire decides which finished jobs leave the store.
	retire *Retirer

	// board is the island-exchange rendezvous store shared by every
	// island-model job this daemon runs; the HTTP layer posts packets
	// arriving from cooperating nodes into it.
	board *island.Board

	// counters (guarded by mu).
	submitted         uint64
	cacheHits         uint64
	cacheMisses       uint64
	solvesTotal       uint64
	solveSecondsTotal float64
	stateCount        map[string]int

	metrics *managerMetrics
	log     *slog.Logger
}

// managerMetrics holds the registry instruments the manager updates on its
// hot paths. The service gauges (queue depth, cache entries, jobs by
// state) are registered as GaugeFuncs/GaugeVecs in New; the solver
// internals accumulate across every job the daemon runs.
type managerMetrics struct {
	reg *telemetry.Registry

	submitted    *telemetry.Counter
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
	solves       *telemetry.Counter
	solveSeconds *telemetry.Counter
	jobsByState  *telemetry.GaugeVec
	retired      *telemetry.Counter

	iterations    *telemetry.Counter
	draws         *telemetry.Counter
	rejectTries   *telemetry.Counter
	fallbackDraws *telemetry.Counter
	stealUnits    *telemetry.Counter
	idleSeconds   *telemetry.Counter
	samplePhase   *telemetry.Histogram
	selectPhase   *telemetry.Histogram
	updatePhase   *telemetry.Histogram
	migrantsIn    *telemetry.Counter
	migrantsOut   *telemetry.Counter
	blendRounds   *telemetry.Counter

	// jobSeconds tracks submit-to-finish latency by terminal state; its
	// exemplars link each bucket to the trace of the job that landed
	// there, so the serving SLO report can jump from a p99 bucket
	// straight to a span tree.
	jobSeconds *telemetry.HistogramVec
}

func newManagerMetrics(reg *telemetry.Registry) *managerMetrics {
	// 100us .. ~26s: CE phase times span sub-millisecond toy instances to
	// multi-second sampling barriers at n=256.
	phaseBuckets := telemetry.ExpBuckets(1e-4, 4, 10)
	return &managerMetrics{
		reg:          reg,
		submitted:    reg.Counter("matchd_jobs_submitted_total", "Jobs submitted since start."),
		cacheHits:    reg.Counter("matchd_cache_hits_total", "Submissions answered from the result cache."),
		cacheMisses:  reg.Counter("matchd_cache_misses_total", "Submissions that required a solver run."),
		solves:       reg.Counter("matchd_solves_total", "Solver runs completed successfully."),
		solveSeconds: reg.Counter("matchd_solve_seconds_total", "Wall-clock seconds spent in successful solver runs."),
		jobsByState:  reg.GaugeVec("matchd_jobs", "Jobs in the store by lifecycle state.", "state"),
		retired:      reg.Counter("matchd_jobs_retired_total", "Finished jobs retired from the store."),

		iterations:    reg.Counter("matchd_solver_iterations_total", "CE iterations / GA generations executed."),
		draws:         reg.Counter("matchd_solver_draws_total", "Solution samples drawn by the CE solvers."),
		rejectTries:   reg.Counter("matchd_solver_reject_tries_total", "GenPerm rejection-sampling misses."),
		fallbackDraws: reg.Counter("matchd_solver_fallback_draws_total", "GenPerm draws resolved through the compact fallback."),
		stealUnits:    reg.Counter("matchd_solver_steal_units_total", "Sampling work units claimed beyond an even per-worker share."),
		idleSeconds:   reg.Counter("matchd_solver_idle_seconds_total", "Worker time spent waiting at sampling iteration barriers."),
		samplePhase:   reg.Histogram("matchd_solver_sample_phase_seconds", "Per-iteration sample/score barrier time.", phaseBuckets),
		selectPhase:   reg.Histogram("matchd_solver_select_phase_seconds", "Per-iteration elite selection time.", phaseBuckets),
		updatePhase:   reg.Histogram("matchd_solver_update_phase_seconds", "Per-iteration distribution update time.", phaseBuckets),
		migrantsIn:    reg.Counter("matchd_solver_migrants_in_total", "Elite solutions received from peer islands."),
		migrantsOut:   reg.Counter("matchd_solver_migrants_out_total", "Elite solutions sent to peer islands."),
		blendRounds:   reg.Counter("matchd_solver_blend_rounds_total", "Island P-matrix blend steps applied."),

		// 1ms .. ~17min: job latency spans cache hits to long solves.
		jobSeconds: reg.HistogramVec("matchd_job_seconds",
			"Submit-to-finish job latency by terminal state.",
			telemetry.ExpBuckets(1e-3, 4, 10), "state"),
	}
}

// observeIteration feeds one iteration's solver telemetry into the
// registry, attaching traceID as the exemplar on the phase histograms
// when tracing is on. Called from solver callback goroutines without mu.
func (m *Manager) observeIteration(e api.Event, traceID string) {
	mm := m.metrics
	mm.iterations.Inc()
	mm.draws.AddUint(uint64(e.Draws))
	mm.rejectTries.AddUint(e.RejectTries)
	mm.fallbackDraws.AddUint(e.FallbackDraws)
	mm.stealUnits.AddUint(uint64(e.StealUnits))
	mm.idleSeconds.Add(float64(e.IdleNs) / 1e9)
	mm.migrantsIn.AddUint(uint64(e.MigrantsIn))
	mm.migrantsOut.AddUint(uint64(e.MigrantsOut))
	mm.blendRounds.AddUint(uint64(e.BlendRounds))
	if e.SampleNs > 0 {
		mm.samplePhase.ObserveExemplar(float64(e.SampleNs)/1e9, traceID)
		mm.selectPhase.ObserveExemplar(float64(e.SelectNs)/1e9, traceID)
		mm.updatePhase.ObserveExemplar(float64(e.UpdateNs)/1e9, traceID)
	}
}

// New starts a Manager and its worker pool.
func New(opts Options) *Manager {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, opts.QueueCapacity),
		baseCtx:    ctx,
		baseCancel: cancel,
		cache:      NewResultCache(opts.CacheCapacity),
		retire:     NewRetirer(RetainFinished, RetainFor),
		stateCount: make(map[string]int),
		board:      island.NewBoard(),
		metrics:    newManagerMetrics(opts.Metrics),
		log:        opts.Logger,
	}
	reg := opts.Metrics
	reg.GaugeFunc("matchd_queue_depth", "Jobs waiting in the submission queue.",
		func() float64 { return float64(len(m.queue)) })
	reg.GaugeFunc("matchd_queue_capacity", "Capacity of the submission queue.",
		func() float64 { return float64(opts.QueueCapacity) })
	reg.GaugeFunc("matchd_workers", "Size of the solver worker pool.",
		func() float64 { return float64(opts.Workers) })
	reg.GaugeFunc("matchd_cache_entries", "Entries currently held by the result cache.",
		func() float64 { return float64(m.cache.Len()) })
	reg.GaugeFunc("matchd_cache_capacity", "Capacity of the result cache.",
		func() float64 { return float64(opts.CacheCapacity) })
	start := time.Now()
	reg.GaugeFunc("matchd_uptime_seconds", "Seconds since the manager started.",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeVec("matchd_build_info", "Build metadata; the value is always 1.",
		"go_version", "revision").With(runtime.Version(), buildRevision()).Set(1)
	if tr := opts.Tracer; tr != nil {
		reg.GaugeFunc("matchd_trace_spans_started_total", "Spans started by the tracer.",
			func() float64 { return float64(tr.Started()) })
		reg.GaugeFunc("matchd_trace_spans_finished_total", "Spans finished by the tracer.",
			func() float64 { return float64(tr.Finished()) })
		reg.GaugeFunc("matchd_trace_spans_open", "Spans started but not yet finished (a steady nonzero residue with no work in flight indicates a span leak).",
			func() float64 { return float64(tr.OpenSpans()) })
	}
	for w := 0; w < opts.Workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	return m
}

// buildRevision extracts the VCS revision baked into the binary, or
// "unknown" for builds outside a repository (go test, plain go run).
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				if len(s.Value) > 12 {
					return s.Value[:12]
				}
				return s.Value
			}
		}
	}
	return "unknown"
}

// Key computes the content address of a submission: a SHA-256 over the
// canonical re-marshalled instance, written straight into the hash (so
// formatting and field-order noise in the client's JSON does not defeat
// caching), the solver name, the options document and, for a submission
// that resumes from one (see Admit), the checkpoint bytes, so an outside
// checkpoint gets its own address. Options that no longer affect the
// solve (UnprunedScoring, NumAgents, SparseEps and SparseCut, accepted on
// the wire and ignored) are cleared first, so submissions differing only
// in them share one cache entry and route.
func Key(p *matchsim.Problem, solver string, opts api.SolverOptions, checkpoint []byte) (string, error) {
	opts.UnprunedScoring = false
	opts.NumAgents = 0
	opts.SparseEps, opts.SparseCut = 0, 0
	ob, err := json.Marshal(opts)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := p.WriteInstance(h); err != nil {
		return "", err
	}
	h.Write([]byte{0})
	h.Write([]byte(solver))
	h.Write([]byte{0})
	h.Write(ob)
	if len(checkpoint) > 0 {
		h.Write([]byte{0})
		h.Write(checkpoint)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Admit is both serving tiers' one front door for a submission: it
// checks the solver name (rewriting the deprecated alias distributed to
// match) and that an instance is present, decodes the instance, settles
// the checkpoint (see decodeResume; a checkpoint that cannot resume
// exactly is cleared from req) and computes the content address. It
// returns the problem, the checkpoint to resume from (nil to solve fresh)
// and the key. Every error is an invalid submission.
func Admit(req *api.SubmitRequest, log *slog.Logger) (*matchsim.Problem, *matchsim.Checkpoint, string, error) {
	if s := CanonicalSolver(req.Solver); s != req.Solver {
		log.Warn("deprecated solver alias rewritten", "solver", req.Solver, "runs", s)
		req.Solver = s
	}
	if LookupSolver(req.Solver) == nil {
		return nil, nil, "", fmt.Errorf("jobs: unknown solver %q", req.Solver)
	}
	if len(req.Instance) == 0 {
		return nil, nil, "", fmt.Errorf("jobs: submission carries no instance")
	}
	problem, err := matchsim.ReadProblem(bytes.NewReader(req.Instance))
	if err != nil {
		return nil, nil, "", fmt.Errorf("jobs: invalid instance: %w", err)
	}
	resume, err := decodeResume(problem, req, log)
	if err != nil {
		return nil, nil, "", err
	}
	key, err := Key(problem, req.Solver, req.Options, req.Checkpoint)
	if err != nil {
		return nil, nil, "", err
	}
	return problem, resume, key, nil
}

// decodeResume is the one rule for a submission's checkpoint: it returns
// the checkpoint to resume from, or nil to solve fresh from (spec, seed).
// A checkpoint that cannot resume exactly (older than
// matchsim.CheckpointVersion, or options the solver's entry does not
// resume, such as multilevel or islands) is logged and cleared from req.
// Either way the result is the uninterrupted run's. An undecodable,
// ill-fitting or forged checkpoint, or one sent to a solver whose entry
// takes no checkpoints, is an error.
func decodeResume(problem *matchsim.Problem, req *api.SubmitRequest, log *slog.Logger) (*matchsim.Checkpoint, error) {
	if len(req.Checkpoint) == 0 {
		return nil, nil
	}
	s := LookupSolver(req.Solver)
	if s == nil || s.resumes == nil {
		return nil, fmt.Errorf("jobs: solver %q does not accept checkpoints", req.Solver)
	}
	c, err := matchsim.DecodeCheckpoint(req.Checkpoint)
	if err == nil {
		err = problem.VerifyCheckpoint(c)
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: invalid checkpoint: %w", err)
	}
	if o := req.Options; c.Version != matchsim.CheckpointVersion || !s.Resumes(o) {
		log.Warn("checkpoint dropped: it cannot resume exactly; solving fresh",
			"version", c.Version, "multilevel", o.Multilevel, "islands", o.Islands)
		req.Checkpoint = nil
		return nil, nil
	}
	return c, nil
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back on the clock; collisions are checked at registration.
		return fmt.Sprintf("j%016x", time.Now().UnixNano())
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates a request, consults the result cache, and either
// answers it immediately (cache hit: the job is created already done,
// having performed zero new evaluations) or enqueues it. ErrQueueFull and
// ErrShuttingDown report backpressure; other errors are invalid requests.
func (m *Manager) Submit(req api.SubmitRequest) (api.JobInfo, error) {
	return m.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with a caller context. When tracing is on, the
// job's root span joins the trace carried by ctx (the HTTP layer puts
// the request's server span there), so one trace ID follows the job
// from the submitting request through queueing, solving and — for
// cooperative island jobs — exchange rounds on every peer daemon. The
// context is used only for trace propagation; cancelling it does not
// cancel the job (use Cancel).
func (m *Manager) SubmitCtx(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error) {
	problem, resumeFrom, key, err := Admit(&req, m.log)
	if err != nil {
		return api.JobInfo{}, err
	}
	j := &job{
		id:         newJobID(),
		key:        key,
		solver:     req.Solver,
		req:        req,
		problem:    problem,
		tasks:      problem.NumTasks(),
		created:    time.Now(),
		resumeFrom: resumeFrom,
		resumed:    resumeFrom != nil,
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return api.JobInfo{}, ErrShuttingDown
	}
	for m.jobs[j.id] != nil { // vanishingly unlikely; regenerate
		j.id = newJobID()
	}
	m.submitted++
	m.metrics.submitted.Inc()

	if cached, ok := m.cache.Get(key); ok {
		m.cacheHits++
		m.metrics.cacheHits.Inc()
		j.state = api.StateDone
		j.started = j.created
		j.finished = j.created
		j.cacheHit = true
		res := cached // copy; mark the serving, not the solving
		res.CacheHit = true
		j.result = &res
		m.register(j)
		m.startJobSpan(ctx, j)
		j.span.Event("cache-hit", "key", j.key)
		j.span.SetStatus("ok")
		j.span.End()
		m.metrics.jobSeconds.With(j.state).ObserveExemplar(0, j.traceID)
		m.retireLocked(j)
		m.log.Info("job served from cache", "id", j.id, "solver", j.solver, "key", j.key)
		return m.infoLocked(j), nil
	}
	m.cacheMisses++
	m.metrics.cacheMisses.Inc()

	select {
	case m.queue <- j:
	default:
		return api.JobInfo{}, ErrQueueFull
	}
	j.state = api.StateQueued
	m.register(j)
	m.startJobSpan(ctx, j)
	j.queueSpan = j.span.Child("queue")
	m.log.Info("job queued", "id", j.id, "solver", j.solver,
		"tasks", problem.NumTasks(), "seed", req.Options.Seed, "queue_depth", len(m.queue))
	return m.infoLocked(j), nil
}

// startJobSpan opens the job's root span (a child of the span carried
// by ctx, if any) and records its trace ID on the job. No-op without a
// tracer. Caller holds mu; span operations take only span-local locks.
func (m *Manager) startJobSpan(ctx context.Context, j *job) {
	if m.opts.Tracer == nil {
		return
	}
	_, span := m.opts.Tracer.StartSpan(ctx, "job")
	span.SetAttr("job_id", j.id)
	span.SetAttr("solver", j.solver)
	span.SetAttrInt("tasks", int64(j.problem.NumTasks()))
	span.SetAttr("seed", strconv.FormatUint(j.req.Options.Seed, 10))
	if j.resumed {
		span.SetAttr("resumed", "true")
	}
	j.span = span
	j.traceID = span.TraceID()
}

// CanonicalSolver returns the solver a submission naming name runs: the
// deprecated alias distributed (the deleted agent-based MaTCH) runs
// match; every other name is returned unchanged.
func CanonicalSolver(name string) string {
	if name == api.SolverDistributed {
		return api.SolverMaTCH
	}
	return name
}

// register files the job in the store. Caller holds mu.
func (m *Manager) register(j *job) {
	m.jobs[j.id] = j
	m.stateCount[j.state]++
	m.metrics.jobsByState.With(j.state).Add(1)
}

// lookupLocked finds a job in the store, first retiring the finished
// jobs past the age cap. An id that is not there answers ErrRetiredJob
// when it was retired recently and ErrUnknownJob otherwise. Caller
// holds mu.
func (m *Manager) lookupLocked(id string) (*job, error) {
	m.expireLocked(time.Now())
	if j := m.jobs[id]; j != nil {
		return j, nil
	}
	if m.retire.Retired(id) {
		return nil, ErrRetiredJob
	}
	return nil, ErrUnknownJob
}

// retireLocked files a job that just reached a terminal state for
// retirement: it drops the job's spent state and retires whichever
// finished jobs the retention rule no longer keeps. Caller holds mu.
func (m *Manager) retireLocked(j *job) {
	m.releaseLocked(j)
	m.retire.Finished(j.id, j.finished)
	m.expireLocked(j.finished)
}

// expireLocked removes the finished jobs the retention rule retires at
// now. Nothing is retired once Shutdown has begun: the shutdown-
// interrupted jobs must stay for persistInterrupted. Caller holds mu.
func (m *Manager) expireLocked(now time.Time) {
	if m.closed {
		return
	}
	m.retire.Expire(now, func(id string) {
		j := m.jobs[id]
		delete(m.jobs, id)
		m.stateCount[j.state]--
		m.metrics.jobsByState.With(j.state).Add(-1)
		m.metrics.retired.Inc()
	})
}

// releaseLocked drops every piece of a finished job's state that nothing
// can read any more: the parsed problem, the submitted instance and
// checkpoint documents, the resume state, the mid-run export, spent
// spans, and the slack of the iteration log. A done or failed job keeps
// no checkpoint; a user-cancelled one keeps the resumable checkpoint
// Checkpoint serves (the final interrupted state, else the last export).
// A job that Shutdown interrupted keeps everything, because
// persistInterrupted writes its request and checkpoint to disk. Caller
// holds mu.
func (m *Manager) releaseLocked(j *job) {
	if j.state == api.StateCancelled && !j.userCancelled && m.closed {
		return
	}
	if j.state != api.StateCancelled {
		j.checkpoint = nil
	} else if j.checkpoint == nil {
		j.checkpoint = j.exported
	}
	j.exported, j.resumeFrom, j.problem = nil, nil, nil
	j.req.Instance, j.req.Checkpoint = nil, nil
	j.span, j.queueSpan, j.solveSpan = nil, nil, nil
	j.subs = nil
	j.iters.Clip()
}

// setState moves a job between lifecycle states. Caller holds mu.
func (m *Manager) setState(j *job, state string) {
	m.stateCount[j.state]--
	m.metrics.jobsByState.With(j.state).Add(-1)
	j.state = state
	m.stateCount[state]++
	m.metrics.jobsByState.With(state).Add(1)
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// Registry exposes the telemetry registry the manager instruments; the
// HTTP layer renders it at /metrics.
func (m *Manager) Registry() *telemetry.Registry { return m.opts.Metrics }

// Tracer exposes the manager's tracer (nil when tracing is off); the
// HTTP layer traces requests with it and serves its ring at /v1/traces.
func (m *Manager) Tracer() *telemetry.Tracer { return m.opts.Tracer }

// Board exposes the island-exchange rendezvous store so the HTTP layer
// can deliver packets POSTed by cooperating matchd nodes.
func (m *Manager) Board() *island.Board { return m.board }

// Logger exposes the manager's structured logger so the serving layers
// share one sink.
func (m *Manager) Logger() *slog.Logger { return m.log }

// Info returns a job's status document.
func (m *Manager) Info(id string) (api.JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return api.JobInfo{}, err
	}
	return m.infoLocked(j), nil
}

// WaitInfo is a long-poll Info: it returns the job's status document as
// soon as the job's state differs from state, or when ctx ends (the
// document then still reports state). A job that is already past state,
// or terminal, answers at once.
func (m *Manager) WaitInfo(ctx context.Context, id, state string) (api.JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return api.JobInfo{}, err
	}
	for j.state == state && !api.TerminalState(state) {
		if j.changed == nil {
			j.changed = make(chan struct{})
		}
		changed := j.changed
		j.waiters++
		m.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
		}
		m.mu.Lock()
		j.waiters--
		if ctx.Err() != nil {
			if j.waiters == 0 && j.changed == changed {
				j.changed = nil // last waiter gone; nothing to close
			}
			break
		}
	}
	return m.infoLocked(j), nil
}

func (m *Manager) infoLocked(j *job) api.JobInfo {
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

		DroppedEvents: j.dropped(),
	}
}

// Result returns a finished job's result. ErrNotDone carries the job's
// current state for jobs that are still queued/running or ended without a
// result (failed, cancelled).
func (m *Manager) Result(id string) (api.JobResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return api.JobResult{}, err
	}
	if j.result == nil || j.state != api.StateDone {
		return api.JobResult{}, fmt.Errorf("%w (state %s)", ErrNotDone, j.state)
	}
	return *j.result, nil
}

// Checkpoint returns a job's latest resumable checkpoint, encoded: the
// most recent mid-run export when the job asked for CheckpointEvery, or
// the final interrupted-state checkpoint of a cancelled run. A
// coordinator resubmits the document verbatim (SubmitRequest.Checkpoint)
// to hand the job off to another node. ErrNoCheckpoint when the job has
// produced none, and for a done or failed job, which keeps none.
func (m *Manager) Checkpoint(id string) (api.CheckpointDoc, error) {
	m.mu.Lock()
	j, err := m.lookupLocked(id)
	var c *matchsim.Checkpoint
	if j != nil {
		c = j.exported
		if j.checkpoint != nil {
			// The final interrupted-state checkpoint supersedes any
			// mid-run export: it is at least as advanced.
			c = j.checkpoint
		}
	}
	m.mu.Unlock()
	if err != nil {
		return api.CheckpointDoc{}, err
	}
	if c == nil {
		return api.CheckpointDoc{}, ErrNoCheckpoint
	}
	enc, err := c.Encode()
	if err != nil {
		return api.CheckpointDoc{}, err
	}
	return api.CheckpointDoc{JobID: id, Iterations: c.Iterations, Checkpoint: enc}, nil
}

// Cancel stops a job: a queued job is finalised immediately, a running
// job's context is cancelled (the solver stops within one iteration).
// Cancelling a terminal job is a no-op. The returned info reflects the
// state at return — a running job may still briefly report "running".
func (m *Manager) Cancel(id string) (api.JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return api.JobInfo{}, err
	}
	switch j.state {
	case api.StateQueued:
		j.userCancelled = true
		m.finalizeLocked(j, api.StateCancelled, "cancelled while queued")
	case api.StateRunning:
		j.userCancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return m.infoLocked(j), nil
}

// Subscribe attaches a live event stream to a job: buffered history is
// replayed first, then events arrive as the solver emits them, and the
// channel closes when the job reaches a terminal state. The returned
// cancel function detaches the subscriber (safe to call twice). Past the
// replayed history a subscriber has room for liveMargin events; one that
// falls further behind loses intermediate events rather than stalling
// the solver.
func (m *Manager) Subscribe(id string) (<-chan api.Event, func(), error) {
	return m.SubscribeFrom(id, 0)
}

// SubscribeFrom is Subscribe starting at event index from, counted over
// every event the job emitted: history events before it are skipped, so
// a reconnecting client that saw the first from events resumes where its
// stream dropped. The history renders its iteration events from the
// job's iteration log on each call. Iteration events past the history
// cap (MaxHistoryIters) are not kept, so a from at or beyond the retained
// history replays nothing and streams only new events. A finished job
// always sends its end event, whatever from is.
func (m *Manager) SubscribeFrom(id string, from int) (<-chan api.Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return nil, nil, err
	}
	recs := j.replayed()
	first := 0 // index of the first iteration event
	if j.hasStarted() {
		first = 1
	}
	from = min(max(from, 0), first+len(recs))
	ch := make(chan api.Event, first+len(recs)-from+1+liveMargin)
	if from < first {
		ch <- j.startEvent()
	}
	for i := max(from-first, 0); i < len(recs); i++ {
		ch <- iterEvent(&recs[i])
	}
	if api.TerminalState(j.state) {
		// The end event goes out whatever from is.
		ch <- j.endEvent()
		close(ch)
		return ch, func() {}, nil
	}
	if j.subs == nil {
		j.subs = make(map[int]chan api.Event)
	}
	idx := j.subCtr
	j.subCtr++
	j.subs[idx] = ch
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			if _, live := j.subs[idx]; live {
				delete(j.subs, idx)
				close(ch)
			}
		})
	}
	return ch, cancel, nil
}

// liveMargin is a subscriber's room for live events past its replay:
// about 16 KB for a client that never reads.
const liveMargin = 64

// MaxHistoryIters caps the iteration events a job's history keeps for
// replay, the tracer's default per-span event cap. Each is a 136-byte
// record (telemetry.Iter) and the start and end events are rendered from
// the job's state, so a history holds at most about 70 KB, however long
// the solve runs.
const MaxHistoryIters = 512

// hasStarted reports whether the job emitted its start event: it was
// dequeued to run or served from the cache. Caller holds mu.
func (j *job) hasStarted() bool {
	return !j.started.IsZero()
}

// startEvent renders the job's start event. Caller holds mu.
func (j *job) startEvent() api.Event {
	return api.Event{Kind: api.KindStart, Solver: j.solver, Tasks: j.tasks, Seed: j.req.Options.Seed}
}

// endEvent renders a finished job's end event: its result's outcome, or
// for a job without one the reason it stopped. Caller holds mu.
func (j *job) endEvent() api.Event {
	if j.result != nil {
		return endEvent(j.result)
	}
	reason := "cancelled"
	switch {
	case j.state == api.StateFailed:
		reason = "failed"
	case !j.hasStarted():
		reason = "cancelled while queued"
	}
	return api.Event{Kind: api.KindEnd, StopReason: reason}
}

// replayed returns the iteration records the job's history replays.
// Caller holds mu.
func (j *job) replayed() []telemetry.Iter {
	recs, _ := j.iters.Records()
	return recs[:min(len(recs), MaxHistoryIters)]
}

// dropped returns the number of iteration events the job emitted past
// its history cap. Caller holds mu.
func (j *job) dropped() int {
	recs, total := j.iters.Records()
	return total - min(len(recs), MaxHistoryIters)
}

// iterRecord is the history record of an iteration event, offsetNs after
// the start of the job's solve span.
func iterRecord(e api.Event, offsetNs int64) telemetry.Iter {
	return telemetry.Iter{
		I:             e.Iter,
		Draws:         e.Draws,
		Gamma:         e.Gamma,
		Best:          e.Best,
		Worst:         e.Worst,
		Mean:          e.Mean,
		BestSoFar:     e.BestSoFar,
		RejectTries:   e.RejectTries,
		FallbackDraws: e.FallbackDraws,
		SampleNs:      e.SampleNs,
		SelectNs:      e.SelectNs,
		UpdateNs:      e.UpdateNs,
		IdleNs:        e.IdleNs,
		OffsetNs:      offsetNs,
		Elite:         int32(e.Elite),
		StealUnits:    int32(e.StealUnits),
		Island:        int32(e.Island),
		MigrantsIn:    int32(e.MigrantsIn),
		MigrantsOut:   int32(e.MigrantsOut),
		BlendRounds:   int32(e.BlendRounds),
	}
}

// iterEvent renders a history record as the iteration event it was made
// from.
func iterEvent(it *telemetry.Iter) api.Event {
	return api.Event{
		Kind:          api.KindIteration,
		Iter:          it.I,
		Gamma:         it.Gamma,
		Best:          it.Best,
		Worst:         it.Worst,
		Mean:          it.Mean,
		BestSoFar:     it.BestSoFar,
		Elite:         int(it.Elite),
		Draws:         it.Draws,
		RejectTries:   it.RejectTries,
		FallbackDraws: it.FallbackDraws,
		SampleNs:      it.SampleNs,
		SelectNs:      it.SelectNs,
		UpdateNs:      it.UpdateNs,
		StealUnits:    int(it.StealUnits),
		IdleNs:        it.IdleNs,
		Island:        int(it.Island),
		MigrantsIn:    int(it.MigrantsIn),
		MigrantsOut:   int(it.MigrantsOut),
		BlendRounds:   int(it.BlendRounds),
	}
}

// emitLocked fans an event the job's history already holds out to the
// job's subscribers and mirrors it to the shared trace stream. Caller
// holds mu.
func (m *Manager) emitLocked(j *job, e api.Event) {
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop rather than stall the solver
		}
	}
	if m.opts.TraceWriter != nil {
		m.opts.TraceWriter.Emit(e)
	}
}

// finalizeLocked moves a job into a terminal state, emits the end event,
// closes every subscriber, ends the job's spans, records its latency and
// files it for retirement. stopReason goes to the job's spans; the end event
// derives its own from the job (endEvent). Caller holds mu.
func (m *Manager) finalizeLocked(j *job, state, stopReason string) {
	m.setState(j, state)
	j.finished = time.Now()
	m.emitLocked(j, j.endEvent())
	for idx, ch := range j.subs {
		delete(j.subs, idx)
		close(ch)
	}
	m.endSpansLocked(j, state, stopReason)
	m.metrics.jobSeconds.With(state).ObserveExemplar(j.finished.Sub(j.created).Seconds(), j.traceID)
	m.retireLocked(j)
}

// endSpansLocked closes whichever of the job's spans are still open
// (End is idempotent and nil-safe) with a status derived from the
// terminal state, and stamps the result event on the root span. Caller
// holds mu.
func (m *Manager) endSpansLocked(j *job, state, stopReason string) {
	if j.span == nil {
		return
	}
	status := "ok"
	switch state {
	case api.StateFailed:
		status = "error"
	case api.StateCancelled:
		status = "cancelled"
	}
	j.solveSpan.SetStatus(status)
	j.solveSpan.End()
	j.queueSpan.End() // still open only when the job never started
	if j.result != nil {
		j.span.Event("result",
			"exec", telemetryFloat(j.result.Exec),
			"iterations", strconv.Itoa(j.result.Iterations),
			"stop_reason", j.result.StopReason)
	} else {
		j.span.SetAttr("stop_reason", stopReason)
	}
	if j.errMsg != "" {
		j.span.SetAttr("error", j.errMsg)
	}
	j.span.SetAttr("state", state)
	j.span.SetStatus(status)
	j.span.End()
}

// telemetryFloat renders a float attribute compactly.
func telemetryFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func endEvent(r *api.JobResult) api.Event {
	return api.Event{
		Kind:        api.KindEnd,
		Exec:        r.Exec,
		Iterations:  r.Iterations,
		Evaluations: r.Evaluations,
		MappingTime: r.MappingTime,
		StopReason:  r.StopReason,
	}
}

// runJob executes one dequeued job on a pool worker.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state != api.StateQueued || m.closed {
		// Cancelled while queued, or the manager began shutting down
		// before the job started: leave it for Shutdown to persist.
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	j.cancel = cancel
	m.setState(j, api.StateRunning)
	j.started = time.Now()
	j.queueSpan.SetAttr("depth_at_dequeue", strconv.Itoa(len(m.queue)))
	j.queueSpan.End()
	solveSpan := j.span.Child("solve")
	j.solveSpan = solveSpan
	ctx = telemetry.ContextWithSpan(ctx, solveSpan)
	// One log holds the iterations for the history and the solve span.
	iters := telemetry.NewIterLog(MaxHistoryIters)
	j.iters = iters
	solveSpan.SetIterLog(iters)
	m.emitLocked(j, j.startEvent())
	m.mu.Unlock()
	m.log.Info("job started", "id", j.id, "solver", j.solver,
		"tasks", j.problem.NumTasks(), "seed", j.req.Options.Seed,
		"queued_for", j.started.Sub(j.created))

	traceID := j.traceID
	onIter := func(tr matchsim.IterationTrace) {
		e := trace.IterEvent(tr)
		m.observeIteration(e, traceID)
		rec := iterRecord(e, solveSpan.Elapsed())
		m.mu.Lock()
		iters.Append(rec)
		m.emitLocked(j, e)
		m.mu.Unlock()
	}

	result, checkpoint, err := m.solve(ctx, j, onIter)

	m.mu.Lock()
	j.cancel = nil
	j.checkpoint = checkpoint
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		m.finalizeLocked(j, api.StateCancelled, "cancelled")
	case err != nil:
		j.errMsg = err.Error()
		m.finalizeLocked(j, api.StateFailed, "failed")
	case result.StopReason == matchsim.StopCancelled:
		// The solver returned its best-so-far when the context fired;
		// the job is cancelled, the checkpoint (if any) preserves it.
		m.finalizeLocked(j, api.StateCancelled, "cancelled")
	default:
		j.result = result
		m.solvesTotal++
		m.metrics.solves.Inc()
		elapsed := time.Since(j.started).Seconds()
		m.solveSecondsTotal += elapsed
		m.metrics.solveSeconds.Add(elapsed)
		m.cache.Put(j.key, *result)
		m.finalizeLocked(j, api.StateDone, result.StopReason)
	}
	persistDone := api.TerminalState(j.state) && !m.closed
	path := j.persistPath
	state, errMsg := j.state, j.errMsg
	m.mu.Unlock()

	switch state {
	case api.StateFailed:
		m.log.Error("job failed", "id", j.id, "solver", j.solver, "error", errMsg)
	case api.StateDone:
		m.log.Info("job done", "id", j.id, "solver", j.solver,
			"exec", result.Exec, "iterations", result.Iterations,
			"evaluations", result.Evaluations, "duration", time.Since(j.started),
			"stop_reason", result.StopReason)
	default:
		m.log.Info("job cancelled", "id", j.id, "solver", j.solver,
			"duration", time.Since(j.started), "checkpointed", checkpoint != nil)
	}

	if persistDone && path != "" {
		// The restored job ran to a terminal state on its own: its
		// checkpoint file is spent.
		removePersisted(path)
	}
}

// Stats is a point-in-time snapshot of the manager's gauges and counters.
type Stats struct {
	QueueDepth    int
	QueueCapacity int
	Workers       int
	JobsByState   map[string]int
	Submitted     uint64
	CacheHits     uint64
	CacheMisses   uint64
	CacheEntries  int
	CacheCapacity int
	SolvesTotal   uint64
	// SolveSecondsTotal accumulates wall-clock solve latency; divide by
	// SolvesTotal for the mean.
	SolveSecondsTotal float64
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	byState := make(map[string]int, len(m.stateCount))
	for s, c := range m.stateCount {
		if c > 0 {
			byState[s] = c
		}
	}
	return Stats{
		QueueDepth:        len(m.queue),
		QueueCapacity:     m.opts.QueueCapacity,
		Workers:           m.opts.Workers,
		JobsByState:       byState,
		Submitted:         m.submitted,
		CacheHits:         m.cacheHits,
		CacheMisses:       m.cacheMisses,
		CacheEntries:      m.cache.Len(),
		CacheCapacity:     m.opts.CacheCapacity,
		SolvesTotal:       m.solvesTotal,
		SolveSecondsTotal: m.solveSecondsTotal,
	}
}

// Closed reports whether Shutdown has begun.
func (m *Manager) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Shutdown drains the manager: submissions are refused, running jobs are
// cancelled (each stops within one solver iteration), and—when a
// checkpoint directory is configured—interrupted and still-queued jobs
// are persisted so Restore can pick them up after a restart. It returns
// once every worker has stopped or ctx expires.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	running := m.stateCount[api.StateRunning]
	queued := m.stateCount[api.StateQueued]
	m.mu.Unlock()

	m.log.Info("shutdown: draining", "running", running, "queued", queued)
	m.baseCancel() // interrupt running jobs

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown timed out: %w", ctx.Err())
	}

	var perr error
	if m.opts.CheckpointDir != "" {
		perr = m.persistInterrupted()
	}

	// Close the spans of jobs that never reached a terminal state (still
	// queued at shutdown) so the tracer's started/finished accounting
	// balances — the span-leak invariant internal/verify checks.
	m.mu.Lock()
	for _, j := range m.jobs {
		if !api.TerminalState(j.state) && j.span != nil {
			j.queueSpan.End()
			j.solveSpan.SetStatus("interrupted")
			j.solveSpan.End()
			j.span.SetStatus("interrupted")
			j.span.End()
		}
	}
	m.mu.Unlock()
	return perr
}

// Readiness evaluates the daemon's readiness checks: the submission
// queue is accepting (open and below capacity), the checkpoint
// directory (when configured) is writable, and the island exchange
// board is reachable. It backs GET /readyz; liveness stays on /healthz.
func (m *Manager) Readiness() (bool, []api.ReadyCheck) {
	m.mu.Lock()
	closed := m.closed
	depth := len(m.queue)
	m.mu.Unlock()

	checks := make([]api.ReadyCheck, 0, 3)
	qc := api.ReadyCheck{Name: "queue", OK: !closed && depth < m.opts.QueueCapacity,
		Detail: fmt.Sprintf("%d/%d", depth, m.opts.QueueCapacity)}
	switch {
	case closed:
		qc.Detail = "shutting down"
	case depth >= m.opts.QueueCapacity:
		qc.Detail = "full: " + qc.Detail
	}
	checks = append(checks, qc)

	if dir := m.opts.CheckpointDir; dir != "" {
		cc := api.ReadyCheck{Name: "checkpoint_dir", OK: true, Detail: dir}
		if err := ProbeWritable(dir); err != nil {
			cc.OK = false
			cc.Detail = err.Error()
		}
		checks = append(checks, cc)
	}

	bc := api.ReadyCheck{Name: "island_board", OK: m.board != nil}
	if m.board != nil {
		bc.Detail = fmt.Sprintf("%d active sessions", m.board.Sessions())
	}
	checks = append(checks, bc)

	ready := true
	for _, c := range checks {
		ready = ready && c.OK
	}
	return ready, checks
}
