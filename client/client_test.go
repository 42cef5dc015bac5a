package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"matchsim/api"
)

// flakyEventServer simulates a matchd node whose SSE connections keep
// dropping: each GET /v1/jobs/{id}/events connection serves at most
// chunk events past the requested ?from offset and then ends the
// response without the job's end event. Only a client that reconnects
// and resumes from its last seen index ever observes the whole stream.
type flakyEventServer struct {
	mu     sync.Mutex
	events []api.Event
	chunk  int
	conns  int
	// failWith, when non-zero, makes every subsequent events request
	// fail with that HTTP status instead of streaming.
	failWith int
}

func (f *flakyEventServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		// The job stays "running" until the final (end) event has been
		// served at least once, so the watcher's terminal-state probe
		// does not end the watch early.
		state := api.StateRunning
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.JobInfo{ID: r.PathValue("id"), State: state})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.conns++
		fail := f.failWith
		from := 0
		if q := r.URL.Query().Get("from"); q != "" {
			from, _ = strconv.Atoi(q)
		}
		end := from + f.chunk
		if end > len(f.events) {
			end = len(f.events)
		}
		serve := append([]api.Event(nil), f.events[from:end]...)
		f.mu.Unlock()

		if fail != 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(fail)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "induced failure"})
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		for _, e := range serve {
			data, _ := json.Marshal(e)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data)
		}
		// Return without the rest of the stream: a dropped connection
		// from the client's point of view (clean EOF, no end event).
	})
	return mux
}

func makeEvents(iters int) []api.Event {
	evs := []api.Event{{Kind: "start", Solver: "match", Tasks: 8, Seed: 7}}
	for i := 0; i < iters; i++ {
		evs = append(evs, api.Event{Kind: "iter", Iter: i, Best: float64(100 - i)})
	}
	evs = append(evs, api.Event{Kind: "end", Exec: 42, Iterations: iters, StopReason: "completed"})
	return evs
}

// TestWatchJobReconnects pins the auto-reconnect contract: a stream that
// keeps dropping mid-job is transparently resumed from the last seen
// event index, every event is delivered exactly once and in order, and
// the watcher ends cleanly once the end event arrives.
func TestWatchJobReconnects(t *testing.T) {
	f := &flakyEventServer{events: makeEvents(10), chunk: 3}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := New(srv.URL).WatchJob(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var got []api.Event
	for e, ok := w.Next(); ok; e, ok = w.Next() {
		got = append(got, e)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("watcher ended with error: %v", err)
	}
	if len(got) != len(f.events) {
		t.Fatalf("delivered %d events, want %d", len(got), len(f.events))
	}
	for i, e := range got {
		want := f.events[i]
		if e.Kind != want.Kind || e.Iter != want.Iter || e.Best != want.Best {
			t.Fatalf("event %d = %+v, want %+v", i, e, want)
		}
	}
	f.mu.Lock()
	conns := f.conns
	f.mu.Unlock()
	if minConns := (len(f.events) + f.chunk - 1) / f.chunk; conns < minConns {
		t.Fatalf("served %d connections, want at least %d (stream must have reconnected)", conns, minConns)
	}
}

// TestWatchJobFatalStatus: a 4xx from the daemon ends the watch with the
// typed error instead of retrying forever.
func TestWatchJobFatalStatus(t *testing.T) {
	f := &flakyEventServer{events: makeEvents(6), chunk: 3}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := New(srv.URL).WatchJob(ctx, "j2")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Let the first chunk stream, then poison the endpoint.
	seen := 0
	for e, ok := w.Next(); ok; e, ok = w.Next() {
		seen++
		if e.Iter == 1 {
			f.mu.Lock()
			f.failWith = http.StatusNotFound
			f.mu.Unlock()
		}
	}
	apiErr, ok := w.Err().(*api.Error)
	if !ok {
		t.Fatalf("watcher error = %v, want *api.Error", w.Err())
	}
	if apiErr.Status != http.StatusNotFound {
		t.Fatalf("watcher error status = %d, want 404", apiErr.Status)
	}
	if seen == 0 {
		t.Fatal("no events delivered before the induced failure")
	}
}

// TestWatchJobCloseDuringBackoff: Close while the watcher waits out a
// backoff returns promptly without an error.
func TestWatchJobCloseDuringBackoff(t *testing.T) {
	f := &flakyEventServer{events: makeEvents(10), chunk: 2}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	w, err := New(srv.URL).WatchJob(context.Background(), "j3")
	if err != nil {
		t.Fatal(err)
	}
	// Consume a couple of events so at least one reconnect cycle runs.
	for i := 0; i < 3; i++ {
		if _, ok := w.Next(); !ok {
			t.Fatal("stream ended prematurely")
		}
	}
	done := make(chan struct{})
	go func() { w.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("closed watcher reports error: %v", err)
	}
}

// TestWatchJobDecodesLegacyEvents: an older daemon's iteration events
// carry pruned, rescored and skipped_edges, which this build no longer
// defines. They must still decode, with every current field intact.
func TestWatchJobDecodesLegacyEvents(t *testing.T) {
	stream := []string{
		`{"kind":"start","solver":"match","tasks":8,"seed":7,"iter":0}`,
		`{"kind":"iter","seed":0,"iter":0,"gamma":90,"best":80,"worst":120,"mean":100,"best_so_far":80,"elite":6,"draws":128,"pruned":91,"rescored":2,"reject_tries":40,"fallback_draws":3,"skipped_edges":512,"sample_ns":1000}`,
		`{"kind":"end","seed":0,"iter":0,"exec":80,"iterations":1,"stop_reason":"max-iterations"}`,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.JobInfo{ID: r.PathValue("id"), State: api.StateDone})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, data := range stream {
			var kind struct{ Kind string }
			_ = json.Unmarshal([]byte(data), &kind)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind.Kind, data)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := New(srv.URL).WatchJob(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got []api.Event
	for e, ok := w.Next(); ok; e, ok = w.Next() {
		got = append(got, e)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("legacy stream failed to decode: %v", err)
	}
	if len(got) != len(stream) {
		t.Fatalf("decoded %d events, want %d", len(got), len(stream))
	}
	want := api.Event{
		Kind: "iter", Gamma: 90, Best: 80, Worst: 120, Mean: 100, BestSoFar: 80,
		Elite: 6, Draws: 128, RejectTries: 40, FallbackDraws: 3, SampleNs: 1000,
	}
	if got[1] != want {
		t.Fatalf("legacy iteration event decoded as %+v, want %+v", got[1], want)
	}
}
