// Package client is the Go client of the matchd mapping service. It
// speaks the HTTP/JSON protocol of internal/httpapi using only the public
// wire types of package api, exactly as a third-party consumer would.
//
//	c := client.New("http://127.0.0.1:8080")
//	info, _ := c.Submit(ctx, api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH})
//	info, _ = c.Wait(ctx, info.ID, 50*time.Millisecond)
//	res, _ := c.Result(ctx, info.ID)
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"matchsim/api"
)

// Client talks to one matchd instance.
type Client struct {
	base        string
	http        *http.Client
	traceparent string
}

// New builds a client for the daemon at base (e.g. "http://127.0.0.1:8080").
// The default underlying http.Client has no timeout — long solves stream
// and poll fine; use WithHTTPClient to impose one.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// WithHTTPClient swaps the underlying HTTP client (timeouts, transports).
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.http = hc
	return c
}

// WithTraceparent sets a W3C traceparent header value
// ("00-<traceid>-<spanid>-01") injected into every request, joining the
// daemon-side spans to the caller's trace. A per-request value attached
// with ContextWithTraceparent takes precedence.
func (c *Client) WithTraceparent(tp string) *Client {
	c.traceparent = tp
	return c
}

// traceparentCtxKey carries a per-request traceparent without coupling
// the client to any tracing implementation.
type traceparentCtxKey struct{}

// ContextWithTraceparent returns ctx carrying a traceparent header value
// that the client injects into requests issued under that context.
func ContextWithTraceparent(ctx context.Context, tp string) context.Context {
	return context.WithValue(ctx, traceparentCtxKey{}, tp)
}

// traceparentFor resolves the header value for one request: the
// context-scoped value wins over the client-wide one.
func (c *Client) traceparentFor(ctx context.Context) string {
	if tp, _ := ctx.Value(traceparentCtxKey{}).(string); tp != "" {
		return tp
	}
	return c.traceparent
}

// do issues a request and decodes a JSON response into out, converting
// non-2xx responses into *api.Error.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp := c.traceparentFor(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &api.Error{Status: resp.StatusCode}
		if err := json.NewDecoder(resp.Body).Decode(apiErr); err != nil || apiErr.Message == "" {
			apiErr.Message = resp.Status
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job. The returned info is the job's initial state:
// "queued" normally, "done" when the submission was answered from the
// daemon's result cache.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &info)
	return info, err
}

// SubmitBatch posts a batch of jobs in one request (POST /v1/jobs:batch).
// The response carries one item per job, in order; partial failure is
// per-item (check each item's Status/Error), so err is non-nil only when
// the batch itself was rejected or the transport failed.
func (c *Client) SubmitBatch(ctx context.Context, req api.BatchSubmitRequest) (api.BatchSubmitResponse, error) {
	var resp api.BatchSubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs:batch", req, &resp)
	return resp, err
}

// Checkpoint fetches a job's latest resumable checkpoint — the handoff
// document a supervisor resubmits as SubmitRequest.Checkpoint to resume
// the job elsewhere. Jobs without one yield an *api.Error with Status 404.
func (c *Client) Checkpoint(ctx context.Context, id string) (api.CheckpointDoc, error) {
	var doc api.CheckpointDoc
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/checkpoint", nil, &doc)
	return doc, err
}

// Info fetches a job's status.
func (c *Client) Info(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &info)
	return info, err
}

// InfoWait long-polls a job's status: the daemon answers once the job's
// state differs from state, or after wait (the daemon caps it at a few
// seconds), whichever comes first. A daemon that predates the long-poll
// answers at once, so callers must not assume the state changed.
func (c *Client) InfoWait(ctx context.Context, id, state string, wait time.Duration) (api.JobInfo, error) {
	var info api.JobInfo
	q := url.Values{"state": {state}, "wait": {wait.String()}}
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?"+q.Encode(), nil, &info)
	return info, err
}

// Result fetches a finished job's result. Unfinished jobs yield an
// *api.Error with Status 409.
func (c *Client) Result(ctx context.Context, id string) (api.JobResult, error) {
	var res api.JobResult
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res)
	return res, err
}

// Cancel requests cancellation; running solvers stop within one iteration.
func (c *Client) Cancel(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &info)
	return info, err
}

// Wait polls a job until it reaches a terminal state, ctx expires, or a
// request fails. interval <= 0 defaults to 100ms.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (api.JobInfo, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		info, err := c.Info(ctx, id)
		if err != nil {
			return info, err
		}
		if api.TerminalState(info.State) {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Events subscribes to a job's SSE progress stream and invokes fn for
// every event, history first. It returns when the job ends (nil), ctx is
// cancelled, or the stream breaks.
func (c *Client) Events(ctx context.Context, id string, fn func(api.Event)) error {
	return c.EventsFrom(ctx, id, 0, fn)
}

// EventsFrom is Events starting at buffered-event index from: the daemon
// skips the first from events of the job's history, so a caller that
// already consumed them (a reconnect after a dropped stream) resumes
// exactly where it left off.
func (c *Client) EventsFrom(ctx context.Context, id string, from int, fn func(api.Event)) error {
	path := c.base + "/v1/jobs/" + id + "/events"
	if from > 0 {
		path += "?from=" + fmt.Sprint(from)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if tp := c.traceparentFor(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := &api.Error{Status: resp.StatusCode}
		if err := json.NewDecoder(resp.Body).Decode(apiErr); err != nil || apiErr.Message == "" {
			apiErr.Message = resp.Status
		}
		return apiErr
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for scanner.Scan() {
		line := scanner.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // event: lines, keep-alives, blank separators
		}
		var e api.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return fmt.Errorf("client: malformed event payload: %w", err)
		}
		fn(e)
	}
	if err := scanner.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// JobWatcher is a pull-based view of a job's SSE progress stream,
// returned by WatchJob. Next blocks for the next event; after it returns
// false, Err reports why the stream ended (nil on normal job completion).
// Close releases the stream early; it is safe to call more than once and
// concurrently with Next.
type JobWatcher struct {
	cancel context.CancelFunc
	events chan api.Event
	done   chan struct{}
	err    error // written before done closes, read after
}

// WatchJob subscribes to a job's progress events as a typed iterator —
// the pull-shaped counterpart of Events for consumers that drive their
// own loop (matchtop renders from one of these):
//
//	w, err := c.WatchJob(ctx, id)
//	if err != nil { ... }
//	defer w.Close()
//	for e, ok := w.Next(); ok; e, ok = w.Next() {
//		render(e)
//	}
//	if err := w.Err(); err != nil { ... }
//
// The stream replays the job's buffered history first, then follows it
// live until the job reaches a terminal state, ctx is cancelled, or the
// stream fails for good. A dropped connection is not fatal: the watcher
// reconnects with exponential backoff, resuming from the last event it
// delivered (the daemon's ?from= index), so consumers see every event
// exactly once across reconnects. Only errors no retry can fix — a 4xx
// from the daemon, a cancelled context — end the watch.
func (c *Client) WatchJob(ctx context.Context, id string) (*JobWatcher, error) {
	// Probe the job first so an unknown id fails here, typed, instead of
	// surfacing from the first Next call.
	if _, err := c.Info(ctx, id); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	w := &JobWatcher{
		cancel: cancel,
		events: make(chan api.Event),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		err := c.watch(ctx, id, func(e api.Event) {
			select {
			case w.events <- e:
			case <-ctx.Done():
			}
		})
		if err != nil && ctx.Err() == nil {
			w.err = err
		}
	}()
	return w, nil
}

// watch is WatchJob's reconnect loop: stream events from the last seen
// index, and on a retryable failure (transport error, 5xx) back off
// exponentially — 100ms doubling to a 5s cap, reset whenever a connection
// makes progress — and resubscribe from where the stream dropped. It
// returns nil once the job's end event has been delivered or the job is
// otherwise terminal, and an error only when no retry can fix it (4xx).
func (c *Client) watch(ctx context.Context, id string, deliver func(api.Event)) error {
	const (
		initialBackoff = 100 * time.Millisecond
		maxBackoff     = 5 * time.Second
	)
	seen := 0
	sawEnd := false
	backoff := initialBackoff
	for {
		before := seen
		err := c.EventsFrom(ctx, id, seen, func(e api.Event) {
			seen++
			if e.Kind == api.KindEnd {
				sawEnd = true
			}
			deliver(e)
		})
		switch {
		case ctx.Err() != nil:
			return nil // Close or caller cancellation, not a failure
		case err == nil && sawEnd:
			return nil
		case err == nil:
			// Clean EOF without an end event: the daemon closed the
			// stream mid-job (e.g. it is shutting down). If the job is
			// already terminal there is nothing more to stream; otherwise
			// fall through and reconnect.
			if info, ierr := c.Info(ctx, id); ierr == nil && api.TerminalState(info.State) {
				return nil
			}
		default:
			var apiErr *api.Error
			if errors.As(err, &apiErr) && apiErr.Status < 500 {
				return err // the daemon rejected us; retrying cannot help
			}
		}
		if seen > before {
			backoff = initialBackoff // the connection worked; start fresh
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// Next blocks until the next event arrives. ok is false once the stream
// has ended — job finished, watcher closed, or transport failure (see Err).
func (w *JobWatcher) Next() (e api.Event, ok bool) {
	select {
	case e = <-w.events:
		return e, true
	case <-w.done:
		// Drain any event raced in before the stream goroutine exited.
		select {
		case e = <-w.events:
			return e, true
		default:
			return api.Event{}, false
		}
	}
}

// Err reports why the stream ended: nil for normal completion or Close,
// the transport/decode error otherwise. Valid after Next returns false.
func (w *JobWatcher) Err() error {
	select {
	case <-w.done:
		return w.err
	default:
		return nil
	}
}

// Close detaches the watcher and releases the underlying connection.
func (w *JobWatcher) Close() {
	w.cancel()
	<-w.done
}

// Healthy reports whether the daemon answers /healthz with 200
// (liveness: the process serves requests).
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready fetches the daemon's readiness document (/readyz). The returned
// status carries the individual check results even when the daemon is
// unready — err is then the *api.Error with Status 503.
func (c *Client) Ready(ctx context.Context) (api.ReadyStatus, error) {
	var rs api.ReadyStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return rs, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return rs, err
	}
	defer resp.Body.Close()
	decErr := json.NewDecoder(resp.Body).Decode(&rs)
	if resp.StatusCode != http.StatusOK {
		return rs, &api.Error{Status: resp.StatusCode, Message: "daemon not ready"}
	}
	return rs, decErr
}

// ClusterStatus fetches a coordinator's topology/routing document
// (GET /v1/cluster). Standalone daemons answer 404.
func (c *Client) ClusterStatus(ctx context.Context) (api.ClusterStatus, error) {
	var st api.ClusterStatus
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &st)
	return st, err
}

// DrainWorker asks a coordinator to hand the named worker's in-flight
// solves off to the surviving nodes (POST /v1/cluster/drain) and
// returns the post-drain topology document.
func (c *Client) DrainWorker(ctx context.Context, worker string) (api.ClusterStatus, error) {
	var st api.ClusterStatus
	err := c.do(ctx, http.MethodPost, "/v1/cluster/drain", api.ClusterDrainRequest{Worker: worker}, &st)
	return st, err
}

// Traces lists the daemon's retained traces, most recent first (limit
// <= 0 takes the server default).
func (c *Client) Traces(ctx context.Context, limit int) ([]api.TraceSummary, error) {
	path := "/v1/traces"
	if limit > 0 {
		path += "?limit=" + fmt.Sprint(limit)
	}
	var out []api.TraceSummary
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Trace fetches one trace's span tree by trace ID.
func (c *Client) Trace(ctx context.Context, traceID string) (api.TraceDoc, error) {
	var doc api.TraceDoc
	err := c.do(ctx, http.MethodGet, "/v1/traces/"+traceID, nil, &doc)
	return doc, err
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &api.Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return string(data), nil
}
