// Package api defines the wire types of the matchd mapping service: job
// submission requests, job status and result documents, and the
// server-sent progress events. It is shared by the daemon (cmd/matchd,
// internal/httpapi, internal/jobs) and the Go client (package client),
// and doubles as the JSON schema reference for non-Go consumers.
//
// All documents are plain JSON. Event is also the record of the repo's
// JSONL trace files (internal/trace), so a concatenation of a job's SSE
// `data:` payloads is a valid trace stream.
package api

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Solver names accepted by SubmitRequest.Solver.
const (
	SolverMaTCH       = "match"       // the paper's CE heuristic (|Vt| = |Vr|)
	SolverManyToOne   = "match-m2o"   // generalised CE (any |Vt|, |Vr|)
	SolverGA          = "ga"          // FastMap-GA baseline
	SolverDistributed = "distributed" // agent-based MaTCH
	SolverRandom      = "random"      // uniform random search
	SolverGreedy      = "greedy"      // constructive greedy
	SolverLocal       = "local"       // 2-swap hill climbing
	SolverAnneal      = "anneal"      // simulated annealing
)

// SolverOptions carries every tunable a job may set. Zero values take the
// solver's documented defaults. Only the fields relevant to the chosen
// solver are read.
type SolverOptions struct {
	// Seed and Workers together determine a deterministic run: the same
	// (instance, solver, options) submission produces a bit-identical
	// mapping to a direct library call with the same parameters.
	Seed    uint64 `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// CE (match, match-m2o, distributed) knobs.
	SampleSize int     `json:"sample_size,omitempty"`
	Rho        float64 `json:"rho,omitempty"`
	Zeta       float64 `json:"zeta,omitempty"`
	StallC     int     `json:"stall_c,omitempty"`
	// GammaStallWindow is the generic CE quantile-stall stop (default 25
	// iterations without improvement). Raise it with StallC and
	// MaxIterations for jobs that should run until convergence or
	// cancellation.
	GammaStallWindow int  `json:"gamma_stall_window,omitempty"`
	MaxIterations    int  `json:"max_iterations,omitempty"`
	Polish           bool `json:"polish,omitempty"`
	// Deprecated: UnprunedScoring is accepted for compatibility with older
	// clients and ignored — every draw is scored exactly, and the job's
	// content address (cache key, coordinator route) does not include it.
	UnprunedScoring bool `json:"unpruned_scoring,omitempty"`
	NumAgents       int  `json:"num_agents,omitempty"` // distributed only

	// Multilevel routes a match job through the coarsen/solve/refine
	// pipeline (large instances); the remaining fields tune it. Zero
	// values take the library defaults (see matchsim.MultilevelOptions).
	Multilevel   bool    `json:"multilevel,omitempty"`
	MinCoarse    int     `json:"min_coarse,omitempty"`
	CoarsenRatio float64 `json:"coarsen_ratio,omitempty"`
	RefinePasses int     `json:"refine_passes,omitempty"`
	// Deprecated: SparseEps and SparseCut tuned the sparse-row
	// distribution update, which no longer exists. Like UnprunedScoring
	// they are accepted, ignored and left out of the content address.
	SparseEps float64 `json:"sparse_eps,omitempty"`
	SparseCut int     `json:"sparse_cut,omitempty"`

	// Islands routes a match job through the island-model ensemble: I
	// independent CE islands exchanging elites and blending P-matrix rows
	// every MigrateEvery iterations. Islands <= 1 keeps the plain
	// single-population path (bit-identical). Mutually exclusive with
	// Multilevel. Zero values of the remaining knobs take the library
	// defaults (see matchsim.IslandOptions).
	Islands        int     `json:"islands,omitempty"`
	IslandTopology string  `json:"island_topology,omitempty"`
	MigrateEvery   int     `json:"migrate_every,omitempty"`
	MigrantCount   int     `json:"migrant_count,omitempty"`
	BlendAlpha     float64 `json:"blend_alpha,omitempty"`
	// IslandSession and IslandHosts configure the HTTP transport for a
	// multi-daemon cooperative solve: hosts[g] is the base URL of the
	// matchd node running island g ("" = this node), and IslandSession
	// names the shared exchange session on every node's island board.
	// Leave IslandHosts empty for a single-node (in-memory) ensemble.
	IslandSession string   `json:"island_session,omitempty"`
	IslandHosts   []string `json:"island_hosts,omitempty"`

	// GA knobs.
	PopulationSize int     `json:"population_size,omitempty"`
	Generations    int     `json:"generations,omitempty"`
	CrossoverProb  float64 `json:"crossover_prob,omitempty"`
	MutationProb   float64 `json:"mutation_prob,omitempty"`

	// Baseline knobs.
	Budget   int `json:"budget,omitempty"`   // random-search samples
	Restarts int `json:"restarts,omitempty"` // local-search restarts
	Steps    int `json:"steps,omitempty"`    // annealing moves
}

// SubmitRequest is the body of POST /v1/jobs.
//
// CheckpointEvery and Checkpoint live outside Options deliberately: how
// often a run exports rescue checkpoints never changes which cache entry
// a job maps to. A resumed run is bit-identical to the uninterrupted one,
// so resuming changes no result either; the content address additionally
// hashes the checkpoint only so a document from outside cannot claim the
// fresh submission's cache entry.
type SubmitRequest struct {
	// Instance is the problem instance JSON (the matchgen format: a
	// {"tig": ..., "platform": ...} document).
	Instance json.RawMessage `json:"instance"`
	// Solver selects the algorithm; see the Solver* constants.
	Solver string `json:"solver"`
	// Options tunes the solver; zero values take defaults.
	Options SolverOptions `json:"options"`
	// CheckpointEvery > 0 asks a match job to export a resumable
	// checkpoint every that-many CE iterations, retrievable while the job
	// runs from GET /v1/jobs/{id}/checkpoint. The cluster coordinator sets
	// it so a dead worker's jobs can be handed off mid-solve. Only plain
	// (non-multilevel, non-island) match runs export.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Checkpoint, when non-empty, submits the job as a resumption of an
	// interrupted run: the encoded checkpoint (a core.Checkpoint JSON
	// document) seeds the solve, and the job reports Resumed and
	// finishes with the uninterrupted run's result. A checkpoint that
	// cannot resume exactly — a legacy document without a version, or
	// options requesting multilevel or islands — is dropped and the job
	// solves fresh. One that does not decode, does not fit the instance,
	// or whose best_exec is not its incumbent's score is rejected (400).
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// BatchSubmitRequest is the body of POST /v1/jobs:batch — a bulk
// submission that amortises per-request overhead.
type BatchSubmitRequest struct {
	Jobs []SubmitRequest `json:"jobs"`
}

// BatchSubmitItem is one per-job outcome inside BatchSubmitResponse.
// Exactly one of Info and Error is meaningful: accepted jobs carry their
// status document, rejected ones the error message and the HTTP status
// the same submission would have received on POST /v1/jobs.
type BatchSubmitItem struct {
	Info   *JobInfo `json:"info,omitempty"`
	Error  string   `json:"error,omitempty"`
	Status int      `json:"status"`
}

// BatchSubmitResponse is the body returned by POST /v1/jobs:batch, with
// Items[i] the outcome of Jobs[i]. The response is 200 even when some
// items fail — partial failure is per-item, not per-request.
type BatchSubmitResponse struct {
	Items []BatchSubmitItem `json:"items"`
}

// CheckpointDoc is the document returned by GET /v1/jobs/{id}/checkpoint:
// the job's latest exported checkpoint (see SubmitRequest.CheckpointEvery)
// or, for a cancelled job, its final interrupted-state checkpoint.
type CheckpointDoc struct {
	JobID string `json:"job_id"`
	// Iterations is the checkpoint's completed-iteration count.
	Iterations int `json:"iterations"`
	// Checkpoint is the encoded core.Checkpoint, resubmittable verbatim as
	// SubmitRequest.Checkpoint.
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// TerminalState reports whether a job state is final.
func TerminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobInfo is the status document returned by POST /v1/jobs,
// GET /v1/jobs/{id} and DELETE /v1/jobs/{id}.
type JobInfo struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Solver string `json:"solver"`
	// Key is the content hash of (instance, solver, options, plus the
	// checkpoint of a submission that resumes one) — identical
	// submissions share it and hit the result cache.
	Key     string    `json:"key"`
	Created time.Time `json:"created"`
	// Started and Finished are zero until the job reaches the
	// corresponding lifecycle point.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Error explains a failed job.
	Error string `json:"error,omitempty"`
	// CacheHit marks a job satisfied from the result cache without
	// running the solver.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Resumed marks a job restored after a daemon restart or submitted
	// with a checkpoint (including a coordinator's handoff). It is
	// information only: resumed jobs end with the same result as
	// uninterrupted ones and share their cache entries.
	Resumed bool `json:"resumed,omitempty"`
	// TraceID is the distributed-trace identifier covering this job's
	// whole lifecycle (submission, queueing, solve, island exchanges on
	// other nodes, checkpoint/resume). Empty when the daemon runs with
	// tracing disabled. Fetch the span tree from GET /v1/traces/{TraceID}.
	TraceID string `json:"trace_id,omitempty"`
	// Worker is the base URL of the worker node a coordinator routed this
	// job to. Empty on standalone daemons.
	Worker string `json:"worker,omitempty"`
	// DroppedEvents counts the iteration events the job emitted past its
	// event history's cap: they went to live subscribers but are not
	// replayed to later ones.
	DroppedEvents int `json:"dropped_events,omitempty"`
}

// JobResult is the document returned by GET /v1/jobs/{id}/result.
type JobResult struct {
	// Mapping assigns each task to a resource: mapping[task] = resource.
	Mapping []int `json:"mapping"`
	// Exec is the application execution time of the mapping (the paper's
	// ET, abstract cost units).
	Exec float64 `json:"exec"`
	// Iterations counts CE iterations or GA generations.
	Iterations int `json:"iterations,omitempty"`
	// Evaluations counts cost-function evaluations performed by the run
	// that produced this result (a cache hit performs zero new ones).
	Evaluations int64 `json:"evaluations"`
	// MappingTime is the solver wall-clock time in nanoseconds.
	MappingTime time.Duration `json:"mapping_time_ns"`
	// Solver echoes the algorithm name.
	Solver string `json:"solver"`
	// StopReason records why the run ended (e.g. "distribution-converged",
	// "completed", "cancelled").
	StopReason string `json:"stop_reason,omitempty"`
	// CacheHit marks a result served from the cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// Event kinds: one "start" event opens a run, one "iter" event follows
// per CE iteration / GA generation, and one "end" event closes it.
const (
	KindStart     = "start"
	KindIteration = "iter"
	KindEnd       = "end"
)

// Event is the one per-run record of the system: the line of a JSONL
// trace file (internal/trace), the SSE data payload of
// GET /v1/jobs/{id}/events, the input of the daemon's solver-internals
// metrics and the model of `match -top`. Fields are a union across
// kinds; unused fields are omitted from the wire form.
type Event struct {
	Kind string `json:"kind"` // KindStart | KindIteration | KindEnd
	// Run identity (start events). Seed has no omitempty: 0 is a valid
	// seed and must survive the wire round-trip.
	Solver string `json:"solver,omitempty"`
	Tasks  int    `json:"tasks,omitempty"`
	Seed   uint64 `json:"seed"`
	// Per-iteration payload. Iter counts across a resume: a resumed run's
	// first event follows its checkpoint's iterations.
	Iter      int     `json:"iter"`
	Gamma     float64 `json:"gamma,omitempty"`
	Best      float64 `json:"best,omitempty"`
	Worst     float64 `json:"worst,omitempty"`
	Mean      float64 `json:"mean,omitempty"`
	BestSoFar float64 `json:"best_so_far,omitempty"`
	// Elite is the size of the iteration's elite set.
	Elite int `json:"elite,omitempty"`
	// Solver internals (CE iterations; zero for other solvers). Draws is
	// the samples drawn; RejectTries/FallbackDraws are GenPerm sampler
	// counters; SampleNs/SelectNs/UpdateNs are phase timings; StealUnits
	// and IdleNs describe the worker pool's barrier behaviour. Events
	// from older builds may also carry pruned, rescored, skipped_edges,
	// rebuilt_rows and skipped_rows; decoding ignores them.
	Draws         int    `json:"draws,omitempty"`
	RejectTries   uint64 `json:"reject_tries,omitempty"`
	FallbackDraws uint64 `json:"fallback_draws,omitempty"`
	SampleNs      int64  `json:"sample_ns,omitempty"`
	SelectNs      int64  `json:"select_ns,omitempty"`
	UpdateNs      int64  `json:"update_ns,omitempty"`
	StealUnits    int    `json:"steal_units,omitempty"`
	IdleNs        int64  `json:"idle_ns,omitempty"`
	// Island-model telemetry (island runs only): which island produced
	// this iteration, the elite mappings received/sent in its exchange
	// round and the P-matrix blend steps applied.
	Island      int `json:"island,omitempty"`
	MigrantsIn  int `json:"migrants_in,omitempty"`
	MigrantsOut int `json:"migrants_out,omitempty"`
	BlendRounds int `json:"blend_rounds,omitempty"`
	// Run outcome (end events).
	Exec        float64       `json:"exec,omitempty"`
	Iterations  int           `json:"iterations,omitempty"`
	Evaluations int64         `json:"evaluations,omitempty"`
	MappingTime time.Duration `json:"mapping_time_ns,omitempty"`
	StopReason  string        `json:"stop_reason,omitempty"`
}

// Validate rejects events no well-formed solver run can produce: unknown
// kinds, non-finite costs (NaN/Inf gamma, best, worst, mean, best-so-far
// or exec) and negative counters or timings. Trace writers refuse to emit
// such events (json.Marshal would otherwise fail cryptically on NaN, or
// silently encode a negative iteration), and readers reject them instead
// of propagating them into consumers such as `match -top`.
func (e Event) Validate() error {
	switch e.Kind {
	case KindStart, KindIteration, KindEnd:
	case "":
		return fmt.Errorf("api: event without kind")
	default:
		return fmt.Errorf("api: unknown event kind %q", e.Kind)
	}
	floats := [...]struct {
		name string
		v    float64
	}{
		{"gamma", e.Gamma}, {"best", e.Best}, {"worst", e.Worst},
		{"mean", e.Mean}, {"best_so_far", e.BestSoFar}, {"exec", e.Exec},
	}
	for _, f := range floats {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("api: event has non-finite %s (%v)", f.name, f.v)
		}
	}
	ints := [...]struct {
		name string
		v    int64
	}{
		{"tasks", int64(e.Tasks)}, {"iter", int64(e.Iter)}, {"elite", int64(e.Elite)},
		{"draws", int64(e.Draws)},
		{"sample_ns", e.SampleNs}, {"select_ns", e.SelectNs}, {"update_ns", e.UpdateNs},
		{"steal_units", int64(e.StealUnits)}, {"idle_ns", e.IdleNs},
		{"iterations", int64(e.Iterations)}, {"evaluations", e.Evaluations},
		{"mapping_time_ns", int64(e.MappingTime)},
		{"island", int64(e.Island)}, {"migrants_in", int64(e.MigrantsIn)},
		{"migrants_out", int64(e.MigrantsOut)}, {"blend_rounds", int64(e.BlendRounds)},
	}
	for _, f := range ints {
		if f.v < 0 {
			return fmt.Errorf("api: event has negative %s (%d)", f.name, f.v)
		}
	}
	return nil
}

// SpanEvent is one timestamped annotation inside a span, offset
// monotonically from the span start (per-iteration solver events carry
// gamma, best-so-far and phase timings as string attributes).
type SpanEvent struct {
	Name     string            `json:"name"`
	OffsetNs int64             `json:"offset_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Span is one node of the span tree served by GET /v1/traces/{id}.
// Children are nested; a span whose parent lives on another daemon (or
// was evicted from the ring) appears as a root of the document.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Node names the daemon that produced the span — cross-node traces
	// interleave spans from every cooperating matchd.
	Node          string            `json:"node,omitempty"`
	Start         time.Time         `json:"start"`
	DurationNs    int64             `json:"duration_ns"`
	Status        string            `json:"status,omitempty"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	Events        []SpanEvent       `json:"events,omitempty"`
	DroppedEvents int               `json:"dropped_events,omitempty"`
	Children      []Span            `json:"children,omitempty"`
}

// TraceDoc is the document returned by GET /v1/traces/{id}: the trace's
// retained spans assembled into parent/child trees.
type TraceDoc struct {
	TraceID string `json:"trace_id"`
	// SpanCount is the total number of spans in the document (the roots
	// plus every nested child).
	SpanCount int `json:"span_count"`
	// Spans holds the root spans, children nested, sorted by start time.
	Spans []Span `json:"spans"`
}

// TraceSummary is one row of GET /v1/traces (most recent first).
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Node       string    `json:"node,omitempty"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Spans      int       `json:"spans"`
}

// ClusterWorker is one worker node's row in ClusterStatus.
type ClusterWorker struct {
	// URL is the worker's base URL, as configured on the coordinator.
	URL string `json:"url"`
	// Up reports whether the coordinator currently routes to the worker.
	Up bool `json:"up"`
	// Flights counts the in-flight solves routed to this worker.
	Flights int `json:"flights"`
}

// ClusterStatus is the topology document returned by GET /v1/cluster on
// a coordinator.
type ClusterStatus struct {
	Workers []ClusterWorker `json:"workers"`
	// Flights counts distinct in-flight solves (after singleflight
	// collapsing) across all workers.
	Flights int `json:"flights"`
	// Jobs counts coordinator jobs by lifecycle state.
	Jobs map[string]int `json:"jobs"`
	// Handoffs counts checkpoint handoffs performed since start.
	Handoffs uint64 `json:"handoffs"`
}

// ClusterDrainRequest is the body of POST /v1/cluster/drain on a
// coordinator: hand the named worker's in-flight solves off to the
// surviving nodes and stop routing to it until it passes health probes
// again.
type ClusterDrainRequest struct {
	Worker string `json:"worker"`
}

// ReadyCheck is one readiness probe result inside ReadyStatus.
type ReadyCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ReadyStatus is the document returned by GET /readyz: "ready" with
// HTTP 200 when every check passes, "unready" with HTTP 503 otherwise.
type ReadyStatus struct {
	Status string       `json:"status"`
	Checks []ReadyCheck `json:"checks"`
}

// Error is the JSON error document every non-2xx response carries, plus
// the HTTP status it arrived with.
type Error struct {
	Status  int    `json:"-"`
	Message string `json:"error"`
	// Code, when set, names the condition for programs; Message stays
	// the human text. See CodeJobRetired.
	Code string `json:"code,omitempty"`
}

// CodeJobRetired marks the 404 for a job that finished and was then
// retired from the daemon's store (it keeps the newest 1,024 finished
// jobs, each for at most an hour). A plain 404 without it means the id
// was never issued, or was retired long enough ago to be forgotten.
const CodeJobRetired = "job_retired"

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("matchd: %s (HTTP %d)", e.Message, e.Status)
}
