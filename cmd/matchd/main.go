// Command matchd serves the MaTCH solvers as a long-running mapping
// service: jobs are submitted over HTTP/JSON, run on a bounded worker
// pool, stream per-iteration progress over SSE, and identical submissions
// are answered from a content-addressed result cache. SIGINT/SIGTERM
// drains gracefully — running CE jobs are checkpointed to -checkpoint-dir
// and resume on the next start.
//
// Usage:
//
//	matchd [-listen 127.0.0.1:8080] [-queue 64] [-workers N]
//	       [-cache 128] [-checkpoint-dir DIR] [-trace FILE]
//	       [-trace-spans FILE] [-trace-buffer 4096] [-node NAME]
//	       [-pprof 127.0.0.1:6060]
//
// Cluster mode: -coordinator turns the daemon into a routing
// coordinator over a fixed set of worker matchd nodes, with -workers
// reinterpreted as their comma-separated base URLs:
//
//	matchd -coordinator -workers=http://h1:8080,http://h2:8080
//	       [-cluster-state DIR] [-cache 256] [-poll-interval 200ms]
//	       [-checkpoint-every 5]
//
// The coordinator serves the same HTTP surface (package httpapi) less the
// worker-only SSE, checkpoint and island routes, plus GET /v1/cluster and
// POST /v1/cluster/drain. It consistent-hash routes each submission's
// content address to a worker, collapses identical concurrent
// submissions, and hands a dead or draining worker's solves off to the
// survivors from their freshest checkpoints. -cluster-state journals
// in-flight solves so a restarted coordinator re-attaches to them.
//
// Distributed tracing is always on: every daemon keeps a bounded
// in-memory ring of finished spans served at /v1/traces, -trace-spans
// additionally appends each finished span as a JSONL record, and -node
// names this daemon in multi-node traces (default: the hostname).
//
// See the README's "Running matchd" section for the API walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strconv"
	"strings"

	"matchsim/internal/cluster"
	"matchsim/internal/httpapi"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
	"matchsim/internal/trace"
)

// splitWorkerURLs parses the coordinator-mode -workers value: a
// comma-separated list of worker base URLs, blanks dropped.
func splitWorkerURLs(s string) []string {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			urls = append(urls, p)
		}
	}
	return urls
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "matchd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("matchd", flag.ContinueOnError)
	var (
		listen        = fs.String("listen", "127.0.0.1:8080", "address to listen on (host:port; port 0 picks a free one)")
		queue         = fs.Int("queue", 64, "submission queue capacity")
		workers       = fs.String("workers", "", "concurrent solver jobs (integer; 0 or empty = GOMAXPROCS) — with -coordinator, the comma-separated worker base URLs instead")
		cache         = fs.Int("cache", 128, "result cache capacity in entries (negative disables)")
		checkpointDir = fs.String("checkpoint-dir", "", "directory for shutdown checkpoints (empty disables persistence)")
		coordinator   = fs.Bool("coordinator", false, "run as a cluster coordinator routing jobs to the -workers nodes instead of solving locally")
		clusterState  = fs.String("cluster-state", "", "coordinator journal directory for in-flight solves (empty disables restart re-attachment)")
		pollInterval  = fs.Duration("poll-interval", 200*time.Millisecond, "coordinator checkpoint-refresh and retry cadence; completion is seen at once (worker status calls long-poll)")
		ckptEvery     = fs.Int("checkpoint-every", 5, "coordinator-injected checkpoint export cadence (CE iterations) for handoff")
		traceFile     = fs.String("trace", "", "append every job's trace events to this JSONL file")
		spanFile      = fs.String("trace-spans", "", "append every finished span to this JSONL file")
		traceBuffer   = fs.Int("trace-buffer", 4096, "finished spans retained in memory for /v1/traces")
		nodeName      = fs.String("node", "", "node name stamped on spans (default: hostname)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "max time to wait for running jobs on shutdown")
		pprofAddr     = fs.String("pprof", "", "serve net/http/pprof on this side address (empty disables; keep it loopback-only)")
		logJSON       = fs.Bool("log-json", false, "emit structured logs as JSON lines instead of logfmt text")
		logLevel      = fs.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("invalid -log-level %q: %w", *logLevel, err)
	}
	handlerOpts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(stdout, handlerOpts)
	if *logJSON {
		handler = slog.NewJSONHandler(stdout, handlerOpts)
	}
	logger := slog.New(handler)

	var tw *trace.Writer
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		tw = trace.NewWriter(f)
		// Close flushes the final events once the drain completes and
		// surfaces any write error the per-event emits swallowed.
		defer func() {
			if err := tw.Close(); err != nil {
				logger.Error("trace writer", "file", *traceFile, "error", err)
			}
		}()
	}

	node := *nodeName
	if node == "" {
		node, _ = os.Hostname()
	}
	var spanLog *telemetry.SpanLog
	if *spanFile != "" {
		f, err := os.OpenFile(*spanFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		spanLog = telemetry.NewSpanLog(f)
		defer func() {
			if err := spanLog.Close(); err != nil {
				logger.Error("span log", "file", *spanFile, "error", err)
			}
		}()
	}
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		Node:     node,
		Capacity: *traceBuffer,
		Log:      spanLog,
	})

	if *pprofAddr != "" {
		// The profiler gets its own listener and mux so the job API's
		// handler (and its auth posture) never exposes the debug
		// endpoints. Best-effort: profiling must not take the service
		// down, so serve errors only log.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "url", fmt.Sprintf("http://%s/debug/pprof/", pln.Addr()))
		go func() {
			if err := http.Serve(pln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Error("pprof server", "error", err)
			}
		}()
		defer pln.Close()
	}

	if *coordinator {
		urls := splitWorkerURLs(*workers)
		if len(urls) == 0 {
			return fmt.Errorf("-coordinator requires -workers=<url>[,<url>...]")
		}
		co, err := cluster.New(cluster.Options{
			Workers:         urls,
			CacheCapacity:   *cache,
			StateDir:        *clusterState,
			CheckpointEvery: *ckptEvery,
			PollInterval:    *pollInterval,
			Tracer:          tracer,
			Logger:          logger,
		})
		if err != nil {
			return err
		}
		if restored, err := co.Restore(); err != nil {
			logger.Warn("cluster restore failed", "error", err)
		} else if restored > 0 {
			logger.Info("re-attached journalled flights", "count", restored, "dir", *clusterState)
		}
		return serve(*listen, cluster.NewServer(co), co.Shutdown, *drainTimeout, stdout, logger)
	}

	solverWorkers := 0
	if *workers != "" {
		n, err := strconv.Atoi(*workers)
		if err != nil || n < 0 {
			return fmt.Errorf("invalid -workers %q (worker mode takes a job count)", *workers)
		}
		solverWorkers = n
	}
	manager := jobs.New(jobs.Options{
		QueueCapacity: *queue,
		Workers:       solverWorkers,
		CacheCapacity: *cache,
		CheckpointDir: *checkpointDir,
		TraceWriter:   tw,
		Tracer:        tracer,
		Logger:        logger,
	})
	if restored, err := manager.Restore(); err != nil {
		logger.Warn("restore failed", "error", err, "restored", restored)
	} else if restored > 0 {
		logger.Info("restored checkpointed jobs", "count", restored, "dir", *checkpointDir)
	}
	return serve(*listen, httpapi.New(manager), manager.Shutdown, *drainTimeout, stdout, logger)
}

// serve listens on addr, announces it, and serves handler until SIGINT or
// SIGTERM; it then stops the listener and drains the backend through
// shutdown, both within drainTimeout.
func serve(addr string, handler http.Handler, shutdown func(context.Context) error,
	drainTimeout time.Duration, stdout io.Writer, logger *slog.Logger) error {
	// Listen before announcing readiness so -listen :0 reports the real
	// port. The announcement is a plain line, not a structured record: it
	// is the daemon's readiness contract (the e2e tests parse it).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "matchd listening on http://%s\n", ln.Addr())

	server := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("signal received; draining", "timeout", drainTimeout)
	case err := <-errCh:
		return err
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := server.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := shutdown(drainCtx); err != nil {
		return err
	}
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	logger.Info("drained cleanly")
	return nil
}
