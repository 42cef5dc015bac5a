package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"matchsim/api"
	"matchsim/internal/httpapi"
	"matchsim/internal/telemetry"
)

// Server exposes a Coordinator over HTTP/JSON. The job routes mirror a
// standalone matchd's (package httpapi), so clients point at either
// interchangeably; SSE progress streaming is the one omission — poll
// GET /v1/jobs/{id} instead (client.Wait does). The long-poll form of
// that route (?state=&wait=) is answered at once here: the hold lives on
// the workers, where the coordinator itself long-polls. Cluster-only
// routes:
//
//	GET  /v1/cluster        topology + routing status → 200 ClusterStatus
//	POST /v1/cluster/drain  drain a worker's solves   → 200 ClusterStatus
//
// Every route is wrapped in the same RED middleware as a worker daemon
// (matchd_http_* series on the coordinator's own registry), and the
// submission routes open server spans that the coordinator's job spans
// — and, through the forwarded traceparent, the worker's — nest under.
type Server struct {
	co     *Coordinator
	mux    *http.ServeMux
	tracer *telemetry.Tracer

	requests *telemetry.CounterVec
	errors   *telemetry.CounterVec
	latency  *telemetry.HistogramVec
}

// NewServer builds the HTTP surface over co, instrumenting co.Registry()
// and tracing with co.Tracer() (nil tracer = tracing off).
func NewServer(co *Coordinator) *Server {
	reg := co.Registry()
	s := &Server{
		co:     co,
		mux:    http.NewServeMux(),
		tracer: co.Tracer(),
		requests: reg.CounterVec("matchd_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code"),
		errors: reg.CounterVec("matchd_http_request_errors_total",
			"HTTP requests answered with a 4xx or 5xx status, by route pattern.",
			"route"),
		latency: reg.HistogramVec("matchd_http_request_seconds",
			"HTTP request latency, by route pattern.",
			telemetry.ExpBuckets(0.001, 4, 8), "route"),
	}
	s.handle("POST /v1/jobs", s.submit, true)
	s.handle("POST /v1/jobs:batch", s.submitBatch, true)
	s.handle("GET /v1/jobs/{id}", s.status, false)
	s.handle("GET /v1/jobs/{id}/result", s.result, false)
	s.handle("DELETE /v1/jobs/{id}", s.cancel, false)
	s.handle("GET /v1/cluster", s.clusterStatus, false)
	s.handle("POST /v1/cluster/drain", s.drain, false)
	s.handle("GET /v1/traces", s.traces, false)
	s.handle("GET /v1/traces/{id}", s.traceByID, false)
	s.handle("GET /healthz", s.healthz, false)
	s.handle("GET /readyz", s.readyz, false)
	s.handle("GET /metrics", s.metrics, false)
	return s
}

// handle registers h wrapped in RED middleware; traceAlways routes root
// a server span even without an incoming traceparent (submissions),
// others join an incoming trace only.
func (s *Server) handle(pattern string, h http.HandlerFunc, traceAlways bool) {
	log := s.co.Logger()
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}

		var span *telemetry.Span
		if s.tracer != nil {
			tp := r.Header.Get("traceparent")
			if traceAlways || tp != "" {
				var ctx = r.Context()
				ctx, span = s.tracer.StartSpanRemote(ctx, pattern, tp)
				span.SetAttr("method", r.Method)
				span.SetAttr("remote", r.RemoteAddr)
				r = r.WithContext(ctx)
			}
		}

		h(rec, r)

		elapsed := time.Since(start)
		s.requests.With(pattern, r.Method, strconv.Itoa(rec.code)).Inc()
		if rec.code >= 400 {
			s.errors.With(pattern).Inc()
			log.Warn("request failed", "route", pattern, "code", rec.code,
				"duration", elapsed, "remote", r.RemoteAddr)
		}
		s.latency.With(pattern).ObserveExemplar(elapsed.Seconds(), span.TraceID())
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

// statusRecorder captures the response status for the RED middleware.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Status: status, Message: fmt.Sprintf(format, args...)})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	info, err := s.co.SubmitCtx(r.Context(), req)
	switch {
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusAccepted
	if info.State == api.StateDone { // answered from the coordinator cache
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// submitBatch mirrors the worker-side batch route: per-item statuses,
// 200 whenever the batch body parses.
func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchSubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch carries no jobs")
		return
	}
	resp := api.BatchSubmitResponse{Items: make([]api.BatchSubmitItem, len(req.Jobs))}
	for i := range req.Jobs {
		info, err := s.co.SubmitCtx(r.Context(), req.Jobs[i])
		item := &resp.Items[i]
		switch {
		case errors.Is(err, ErrShuttingDown):
			item.Error, item.Status = err.Error(), http.StatusServiceUnavailable
		case err != nil:
			item.Error, item.Status = err.Error(), http.StatusBadRequest
		default:
			item.Status = http.StatusAccepted
			if info.State == api.StateDone {
				item.Status = http.StatusOK
			}
			cp := info
			item.Info = &cp
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	info, err := s.co.Info(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	res, err := s.co.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, ErrNotDone):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.co.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// clusterStatus serves the topology/routing document.
func (s *Server) clusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.co.Status())
}

// drain hands a worker's in-flight solves off to the survivors and
// stops routing to it until it answers health probes again. The body
// names the worker ({"worker": "http://..."}).
func (s *Server) drain(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterDrainRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid drain body: %v", err)
		return
	}
	if err := s.co.DrainWorker(req.Worker); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.co.Status())
}

// traces lists the coordinator tracer's retained traces.
func (s *Server) traces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusOK, []api.TraceSummary{})
		return
	}
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", q)
			return
		}
		limit = n
	}
	sums := s.tracer.Traces(limit)
	out := make([]api.TraceSummary, len(sums))
	for i, g := range sums {
		out[i] = api.TraceSummary(g)
	}
	writeJSON(w, http.StatusOK, out)
}

// traceByID serves one trace's coordinator-side spans as a tree (the
// worker-side spans of the same trace live on the worker's /v1/traces).
func (s *Server) traceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	spans := s.tracer.Trace(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "unknown trace %q", id)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.BuildTraceDoc(id, spans))
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	if s.co.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	ready, checks := s.co.Readiness()
	doc := api.ReadyStatus{Status: "ready", Checks: checks}
	status := http.StatusOK
	if !ready {
		doc.Status = "unready"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, doc)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") ||
		r.URL.Query().Get("exemplars") == "1" {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.co.Registry().WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_ = s.co.Registry().WritePrometheus(w)
}
