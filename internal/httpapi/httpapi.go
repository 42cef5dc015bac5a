// Package httpapi is the one HTTP/JSON surface of matchd, for both
// serving tiers: a worker daemon (New, over a jobs.Manager) and a cluster
// coordinator (package cluster's NewServer, which is NewServer over the
// coordinator plus two routes of its own).
//
// Both tiers (NewServer):
//
//	POST   /v1/jobs             submit a job            → 202 JobInfo (200 on cache hit)
//	POST   /v1/jobs:batch       submit many jobs        → 200 BatchSubmitResponse (per-item statuses)
//	GET    /v1/jobs/{id}        job status              → 200 JobInfo
//	GET    /v1/jobs/{id}?state=S&wait=D  long-poll: status once it leaves S, or after D → 200 JobInfo
//	GET    /v1/jobs/{id}/result finished job's mapping  → 200 JobResult
//	DELETE /v1/jobs/{id}        cancel a job            → 200 JobInfo
//	GET    /v1/traces           recent trace summaries  → 200 [TraceSummary]
//	GET    /v1/traces/{id}      one trace's span tree   → 200 TraceDoc
//	GET    /healthz             liveness                → 200 {"status":"ok"}
//	GET    /readyz              readiness checks        → 200/503 ReadyStatus
//	GET    /metrics             Prometheus text format  → 200
//
// Worker only (New):
//
//	GET    /v1/jobs/{id}/checkpoint latest resumable checkpoint → 200 CheckpointDoc
//	GET    /v1/jobs/{id}/events live progress (SSE)     → text/event-stream
//	POST   /v1/islands/{session}/packets  island-exchange packet from a peer node → 204
//	GET    /v1/islands/{session}          island session status     → 200
//
// Coordinator only (package cluster):
//
//	GET    /v1/cluster          topology + routing status → 200 ClusterStatus
//	POST   /v1/cluster/drain    drain a worker's solves   → 200 ClusterStatus
//
// Every non-2xx response body is an api.Error document. Both tiers keep
// the newest 1,024 finished jobs, each for at most an hour (package jobs,
// RetainFinished and RetainFor); a lookup of a retired job's id (status,
// result, cancel, checkpoint, events) is a 404 whose document carries
// code "job_retired" (api.CodeJobRetired). The long-poll
// status form holds the request until the job's state differs from
// ?state= or the ?wait= duration (Go syntax, e.g. "200ms"; capped at
// MaxStatusWait) runs out, then answers the current JobInfo either way. A
// cluster coordinator learns of a routed job's completion this way
// instead of polling on a timer. A coordinator validates ?wait= the same
// way but answers at once: the hold lives on its workers. The SSE stream
// replays the job's event history (the start event, at most
// jobs.MaxHistoryIters iteration events and the end event), then follows
// it live (an optional ?from=N query, counted over every emitted event,
// resumes the replay at event index N, so a reconnecting client skips
// what it already saw; a finished job always sends its end event); each
// `data:` payload is one
// api.Event JSON document (the internal trace schema), so concatenating
// them yields a valid trace stream.
//
// The /v1/islands routes are the cooperative-solve fabric: a matchd node
// solving part of an island-model job POSTs exchange packets to the
// nodes running the peer islands, which file them on the local board for
// their islands to consume.
//
// Tracing: when the backend carries a tracer, the middleware opens a
// server span per request — continuing the trace named by an incoming
// W3C `traceparent` header, or rooting a new one on routes that always
// trace (job submission) — and puts it in the request context, where the
// backend parents the job's root span under it. Probes, scrapes and trace
// reads are never traced. Island packet posts carry the sending daemon's
// exchange-span traceparent, which is how one trace ID ends up covering
// every cooperating node. /metrics honours an
// `Accept: application/openmetrics-text` header (or `?exemplars=1`) by
// rendering the OpenMetrics flavour with trace-ID exemplars on histogram
// buckets; the default output stays plain text-format 0.0.4.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"matchsim/api"
	"matchsim/internal/island"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
)

// MaxStatusWait caps the ?wait= hold of a long-poll status request. It
// sits below the coordinator's default per-call timeout (10s), so a held
// request always answers before the caller gives up on it.
const MaxStatusWait = 5 * time.Second

// Backend is what the routes both tiers serve need: a worker's
// jobs.Manager, or a cluster coordinator. Submission and lookup errors
// are the package jobs sentinels (ErrQueueFull, ErrShuttingDown,
// ErrUnknownJob, ErrNotDone), so one status mapping serves both.
type Backend interface {
	SubmitCtx(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error)
	Info(id string) (api.JobInfo, error)
	// WaitInfo answers once the job's state differs from state or ctx
	// ends; a backend may also answer at once.
	WaitInfo(ctx context.Context, id, state string) (api.JobInfo, error)
	Result(id string) (api.JobResult, error)
	Cancel(id string) (api.JobInfo, error)
	Readiness() (bool, []api.ReadyCheck)
	Closed() bool
	Registry() *telemetry.Registry
	Tracer() *telemetry.Tracer
	Logger() *slog.Logger
}

// Server adapts a Backend to net/http. Every route is wrapped in RED
// middleware feeding the backend's telemetry registry: request count by
// (route, method, code), error count, and a latency histogram per route
// with trace-ID exemplars. Streaming routes (SSE) record time-to-first-
// byte in the request-latency histogram — stream lifetime would poison
// its p99 — and their full lifetime in a separate stream histogram. A
// long-poll status request (one carrying ?wait=) is recorded only in the
// stream histogram: its first byte is its last, so its hold time would
// read as the route's latency.
type Server struct {
	backend Backend
	mux     *http.ServeMux
	tracer  *telemetry.Tracer
	maxWait time.Duration // MaxStatusWait; tests shorten it

	requests      *telemetry.CounterVec
	errors        *telemetry.CounterVec
	latency       *telemetry.HistogramVec
	streamSeconds *telemetry.HistogramVec
}

// traceMode decides when the middleware opens a server span for a route.
type traceMode int

const (
	// traceOff never traces the route (probes, scrapes, trace reads —
	// tracing the trace endpoint would feed back into its own ring).
	traceOff traceMode = iota
	// traceOnHeader traces only requests that arrive with a traceparent
	// header, joining the caller's trace. Poll-style routes use this so
	// a Wait loop does not flood the ring with single-span traces.
	traceOnHeader
	// traceAlways traces every request, rooting a fresh trace when no
	// traceparent arrives (job submission: the trace everything else
	// hangs off).
	traceAlways
)

// routeOpts configures one route's middleware behaviour.
type routeOpts struct {
	trace     traceMode
	streaming bool
	// longPoll marks a route whose requests carrying ?wait= are held
	// until something changes; those are timed as streams.
	longPoll bool
}

// NewServer builds the routes both tiers serve over b, instrumenting
// b.Registry() and tracing with b.Tracer() (nil tracer = tracing off
// everywhere). Tier-specific routes are added with Handle (package
// cluster) or by New.
func NewServer(b Backend) *Server {
	reg := b.Registry()
	s := &Server{
		backend: b,
		mux:     http.NewServeMux(),
		tracer:  b.Tracer(),
		maxWait: MaxStatusWait,
		requests: reg.CounterVec("matchd_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code"),
		errors: reg.CounterVec("matchd_http_request_errors_total",
			"HTTP requests answered with a 4xx or 5xx status, by route pattern.",
			"route"),
		latency: reg.HistogramVec("matchd_http_request_seconds",
			"HTTP request latency, by route pattern. Streaming routes record time-to-first-byte here; see matchd_http_stream_seconds for their lifetimes.",
			telemetry.ExpBuckets(0.001, 4, 8), "route"),
		streamSeconds: reg.HistogramVec("matchd_http_stream_seconds",
			"Full lifetime of streaming (SSE) and long-poll (?wait=) requests, by route pattern.",
			telemetry.ExpBuckets(0.01, 4, 10), "route"),
	}
	s.handle("POST /v1/jobs", s.submit, routeOpts{trace: traceAlways})
	s.handle("POST /v1/jobs:batch", s.submitBatch, routeOpts{trace: traceAlways})
	s.handle("GET /v1/jobs/{id}", s.status, routeOpts{trace: traceOnHeader, longPoll: true})
	s.handle("GET /v1/jobs/{id}/result", s.result, routeOpts{trace: traceOnHeader})
	s.handle("DELETE /v1/jobs/{id}", s.cancel, routeOpts{trace: traceOnHeader})
	s.handle("GET /v1/traces", s.traces, routeOpts{trace: traceOff})
	s.handle("GET /v1/traces/{id}", s.traceByID, routeOpts{trace: traceOff})
	s.handle("GET /healthz", s.healthz, routeOpts{trace: traceOff})
	s.handle("GET /readyz", s.readyz, routeOpts{trace: traceOff})
	s.handle("GET /metrics", s.metrics, routeOpts{trace: traceOff})
	return s
}

// New builds a worker daemon's HTTP surface: the shared routes over m
// plus the worker-only checkpoint, SSE and island routes.
func New(m *jobs.Manager) *Server {
	s := NewServer(m)
	wr := workerRoutes{m}
	s.handle("GET /v1/jobs/{id}/checkpoint", wr.checkpoint, routeOpts{trace: traceOnHeader})
	s.handle("GET /v1/jobs/{id}/events", wr.events, routeOpts{trace: traceOnHeader, streaming: true})
	s.handle("POST /v1/islands/{session}/packets", wr.islandPost, routeOpts{trace: traceOnHeader})
	s.handle("GET /v1/islands/{session}", wr.islandStatus, routeOpts{trace: traceOnHeader})
	return s
}

// Handle registers a tier-specific route under the same middleware as
// the shared ones. It joins an incoming trace but never roots one.
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
	s.handle(pattern, h, routeOpts{trace: traceOnHeader})
}

// handle registers h under the mux pattern, wrapped in the RED/tracing
// middleware. The route label is the pattern itself — a bounded set,
// immune to the path-cardinality explosion raw URLs would cause.
func (s *Server) handle(pattern string, h http.HandlerFunc, opts routeOpts) {
	log := s.backend.Logger()
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		var rw http.ResponseWriter = rec
		if f, ok := w.(http.Flusher); ok {
			// Preserve streaming: the SSE handler requires http.Flusher.
			rw = &flushingRecorder{statusRecorder: rec, flusher: f}
		}

		var span *telemetry.Span
		if s.tracer != nil && opts.trace != traceOff {
			tp := r.Header.Get("traceparent")
			if opts.trace == traceAlways || tp != "" {
				var ctx context.Context
				ctx, span = s.tracer.StartSpanRemote(r.Context(), pattern, tp)
				span.SetAttr("method", r.Method)
				span.SetAttr("remote", r.RemoteAddr)
				r = r.WithContext(ctx)
			}
		}

		h(rw, r)

		elapsed := time.Since(start)
		s.requests.With(pattern, r.Method, strconv.Itoa(rec.code)).Inc()
		if rec.code >= 400 {
			s.errors.With(pattern).Inc()
			log.Warn("request failed", "route", pattern, "code", rec.code,
				"duration", elapsed, "remote", r.RemoteAddr)
		}
		switch {
		case opts.longPoll && r.URL.Query().Has("wait"):
			s.streamSeconds.With(pattern).ObserveExemplar(elapsed.Seconds(), span.TraceID())
		case opts.streaming:
			// Time-to-first-byte for the latency series; the stream's
			// lifetime lands in its own histogram.
			latency := elapsed
			if !rec.firstByte.IsZero() {
				latency = rec.firstByte.Sub(start)
			}
			s.streamSeconds.With(pattern).ObserveExemplar(elapsed.Seconds(), span.TraceID())
			s.latency.With(pattern).ObserveExemplar(latency.Seconds(), span.TraceID())
		default:
			s.latency.With(pattern).ObserveExemplar(elapsed.Seconds(), span.TraceID())
		}
		if span != nil {
			span.SetAttrInt("code", int64(rec.code))
			if rec.code >= 400 {
				span.SetStatus("error")
			} else {
				span.SetStatus("ok")
			}
			span.End()
		}
	})
}

// statusRecorder captures the response status and first-byte time for
// the RED middleware.
type statusRecorder struct {
	http.ResponseWriter
	code      int
	firstByte time.Time
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.firstByte.IsZero() {
		sr.firstByte = time.Now()
	}
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.firstByte.IsZero() {
		sr.firstByte = time.Now()
	}
	return sr.ResponseWriter.Write(b)
}

// flushingRecorder is a statusRecorder over a streaming-capable writer; it
// forwards Flush so wrapped handlers still pass the http.Flusher check.
type flushingRecorder struct {
	*statusRecorder
	flusher http.Flusher
}

func (fr *flushingRecorder) Flush() { fr.flusher.Flush() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// WriteJSON answers with status and v as an indented JSON document.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers with status and an api.Error document whose message
// is the formatted text.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, api.Error{Status: status, Message: fmt.Sprintf(format, args...)})
}

// writeJobError answers a failed job lookup with status and an api.Error
// document: the one place a backend error gains its api code (a retired
// job's api.CodeJobRetired).
func writeJobError(w http.ResponseWriter, status int, err error) {
	doc := api.Error{Status: status, Message: err.Error()}
	if errors.Is(err, jobs.ErrRetiredJob) {
		doc.Code = api.CodeJobRetired
	}
	WriteJSON(w, status, doc)
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	info, err := s.backend.SubmitCtx(r.Context(), req)
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusAccepted
	if info.State == api.StateDone { // answered from the result cache
		status = http.StatusOK
	}
	WriteJSON(w, status, info)
}

// submitBatch amortises per-request overhead for bulk submitters: every
// job in the batch is submitted in order, and the response carries one
// item per job with the HTTP status the same submission would have
// received on POST /v1/jobs. Partial failure is per-item — the response
// itself is 200 whenever the batch body parses, so a bulk submitter
// never has to guess which jobs were accepted.
func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchSubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20))
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid batch body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		WriteError(w, http.StatusBadRequest, "batch carries no jobs")
		return
	}
	resp := api.BatchSubmitResponse{Items: make([]api.BatchSubmitItem, len(req.Jobs))}
	for i := range req.Jobs {
		info, err := s.backend.SubmitCtx(r.Context(), req.Jobs[i])
		item := &resp.Items[i]
		switch {
		case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrShuttingDown):
			item.Error, item.Status = err.Error(), http.StatusServiceUnavailable
		case err != nil:
			item.Error, item.Status = err.Error(), http.StatusBadRequest
		default:
			item.Status = http.StatusAccepted
			if info.State == api.StateDone { // answered from the result cache
				item.Status = http.StatusOK
			}
			cp := info
			item.Info = &cp
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// status serves a job's JobInfo. With ?wait=D it long-polls: the answer
// comes once the job's state differs from ?state= (at once when it
// already does, or when no state is given) or after D, capped at
// MaxStatusWait.
func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	var (
		info api.JobInfo
		err  error
	)
	if q.Has("wait") {
		wait, perr := time.ParseDuration(q.Get("wait"))
		if perr != nil || wait < 0 {
			WriteError(w, http.StatusBadRequest, "invalid wait %q: want a non-negative duration such as 200ms", q.Get("wait"))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), min(wait, s.maxWait))
		info, err = s.backend.WaitInfo(ctx, id, q.Get("state"))
		cancel()
	} else {
		info, err = s.backend.Info(id)
	}
	if err != nil {
		writeJobError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	res, err := s.backend.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		writeJobError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, jobs.ErrNotDone):
		WriteError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.backend.Cancel(r.PathValue("id"))
	if err != nil {
		writeJobError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// workerRoutes serves the routes only a worker daemon has: they reach
// into the jobs.Manager beyond the Backend interface.
type workerRoutes struct{ m *jobs.Manager }

// checkpoint serves a job's latest resumable checkpoint — the handoff
// document a coordinator resubmits (SubmitRequest.Checkpoint) to resume
// the job on another worker. 404 both for unknown jobs and for jobs that
// have not exported one.
func (wr workerRoutes) checkpoint(w http.ResponseWriter, r *http.Request) {
	doc, err := wr.m.Checkpoint(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrUnknownJob), errors.Is(err, jobs.ErrNoCheckpoint):
		writeJobError(w, http.StatusNotFound, err)
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, doc)
}

// events streams a job's progress as server-sent events: the buffered
// history first, then live events until the job ends or the client goes
// away. Terminal jobs get their retained history and an immediate close.
// ?from=N skips the first N emitted events, resuming a dropped stream.
func (wr workerRoutes) events(w http.ResponseWriter, r *http.Request) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "invalid from index %q", q)
			return
		}
		from = n
	}
	ch, detach, err := wr.m.SubscribeFrom(r.PathValue("id"), from)
	if err != nil {
		writeJobError(w, http.StatusNotFound, err)
		return
	}
	defer detach()
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case e, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// islandPost files an island-exchange packet from a cooperating matchd
// node on the local board, where the islands of the shared session wait
// for it. Malformed packets and count mismatches are 400s (the peer will
// not succeed by retrying); an accepted packet is a 204.
func (wr workerRoutes) islandPost(w http.ResponseWriter, r *http.Request) {
	var req island.PostRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid packet body: %v", err)
		return
	}
	if err := wr.m.Board().Post(r.PathValue("session"), req.Count, req.Packet); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// islandStatus reports an island session's exchange progress.
func (wr workerRoutes) islandStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := wr.m.Board().Status(r.PathValue("session"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown island session %q", r.PathValue("session"))
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// healthz is the liveness probe: the process is up and serving. It stays
// 200 even when the daemon cannot accept work — that is readiness
// (/readyz) — and flips to 503 only during shutdown, when the listener
// is about to go away.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	if s.backend.Closed() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz is the readiness probe: 200 with the individual check results
// while the daemon can take work (queue accepting, checkpoint dir
// writable, island board reachable), 503 with the failing checks
// otherwise — load balancers should stop routing, not restart.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	ready, checks := s.backend.Readiness()
	doc := api.ReadyStatus{Status: "ready", Checks: checks}
	status := http.StatusOK
	if !ready {
		doc.Status = "unready"
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, doc)
}

// traces lists the tracer's retained traces, most recent first.
// ?limit=N bounds the listing (default 100).
func (s *Server) traces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		WriteJSON(w, http.StatusOK, []api.TraceSummary{})
		return
	}
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			WriteError(w, http.StatusBadRequest, "invalid limit %q", q)
			return
		}
		limit = n
	}
	sums := s.tracer.Traces(limit)
	out := make([]api.TraceSummary, len(sums))
	for i, g := range sums {
		out[i] = api.TraceSummary(g)
	}
	WriteJSON(w, http.StatusOK, out)
}

// traceByID serves one trace's retained spans as a parent/child tree.
func (s *Server) traceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.tracer == nil {
		WriteError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	spans := s.tracer.Trace(id)
	if len(spans) == 0 {
		WriteError(w, http.StatusNotFound, "unknown trace %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, buildTraceDoc(id, spans))
}

// buildTraceDoc assembles flat span records into nested trees. A span
// whose parent is missing from the set (it lives on another daemon, was
// evicted, or is still open) becomes a root. Siblings sort by start
// time.
func buildTraceDoc(traceID string, spans []telemetry.SpanData) api.TraceDoc {
	index := make(map[string]int, len(spans))
	for i, sd := range spans {
		index[sd.SpanID] = i
	}
	children := make(map[string][]int)
	var roots []int
	for i, sd := range spans {
		if _, ok := index[sd.ParentID]; ok && sd.ParentID != sd.SpanID {
			children[sd.ParentID] = append(children[sd.ParentID], i)
		} else {
			roots = append(roots, i)
		}
	}
	visited := make(map[int]bool, len(spans))
	var convert func(i int) api.Span
	convert = func(i int) api.Span {
		visited[i] = true
		sd := spans[i]
		out := api.Span{
			TraceID:       sd.TraceID,
			SpanID:        sd.SpanID,
			ParentID:      sd.ParentID,
			Name:          sd.Name,
			Node:          sd.Node,
			Start:         sd.Start,
			DurationNs:    sd.DurationNs,
			Status:        sd.Status,
			Attrs:         sd.Attrs,
			DroppedEvents: sd.DroppedEvents,
		}
		if len(sd.Events) > 0 {
			out.Events = make([]api.SpanEvent, len(sd.Events))
			for k, ev := range sd.Events {
				out.Events[k] = api.SpanEvent{Name: ev.Name, OffsetNs: ev.OffsetNs, Attrs: ev.Attrs}
			}
		}
		kids := children[sd.SpanID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		for _, c := range kids {
			if !visited[c] { // guards against malformed parent cycles
				out.Children = append(out.Children, convert(c))
			}
		}
		return out
	}
	doc := api.TraceDoc{TraceID: traceID, SpanCount: len(spans)}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].Start.Before(spans[roots[b]].Start) })
	for _, i := range roots {
		if !visited[i] {
			doc.Spans = append(doc.Spans, convert(i))
		}
	}
	return doc
}

// metrics renders the backend's telemetry registry — service gauges and
// counters, solver internals, and the HTTP RED series — in the Prometheus
// text exposition format (zero-dependency; see internal/telemetry). A
// scraper that negotiates `Accept: application/openmetrics-text` (or
// passes ?exemplars=1) gets the OpenMetrics flavour, whose histogram
// buckets carry trace-ID exemplars linking metrics to /v1/traces.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") ||
		r.URL.Query().Get("exemplars") == "1" {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.backend.Registry().WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_ = s.backend.Registry().WritePrometheus(w)
}
