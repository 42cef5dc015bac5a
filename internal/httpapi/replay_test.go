package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"matchsim/api"
	"matchsim/client"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
	"matchsim/internal/trace"
)

// referenceHistory is the job event history the iteration log replaced:
// a []api.Event that kept every event but the iteration events past
// jobs.MaxHistoryIters, replayed by index. It is the reference the
// log-rendered replay must reproduce byte for byte.
type referenceHistory struct {
	events  []api.Event
	dropped int
}

// emit applies the history's retention rule to one emitted event.
func (h *referenceHistory) emit(e api.Event) {
	if e.Kind == api.KindIteration && len(h.events) > jobs.MaxHistoryIters {
		h.dropped++
		return
	}
	h.events = append(h.events, e)
}

// replay returns what a subscriber of the finished job received from
// index from: the history from that index, the end event always.
func (h *referenceHistory) replay(from int) []api.Event {
	history := h.events[:len(h.events)-1]
	from = min(max(from, 0), len(history))
	return append(slices.Clone(history[from:]), h.events[len(h.events)-1])
}

// referenceSolveEvents is the solve span's events as the map-building
// span path recorded them: one "iter" event of seven formatted attributes
// per iteration, up to the tracer's default cap of 512, the rest counted
// as dropped. offsets are the served events' offsets, which no reference
// can reproduce.
func referenceSolveEvents(emitted []api.Event, offsets []int64) ([]api.SpanEvent, int) {
	const maxEvents = 512
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var evs []api.SpanEvent
	dropped := 0
	for _, e := range emitted {
		if e.Kind != api.KindIteration {
			continue
		}
		if len(evs) >= maxEvents {
			dropped++
			continue
		}
		offset := int64(-1) // no served event to take it from
		if len(evs) < len(offsets) {
			offset = offsets[len(evs)]
		}
		evs = append(evs, api.SpanEvent{Name: "iter", OffsetNs: offset, Attrs: map[string]string{
			"i":           strconv.Itoa(e.Iter),
			"gamma":       f(e.Gamma),
			"best_so_far": f(e.BestSoFar),
			"draws":       strconv.Itoa(e.Draws),
			"sample_ns":   strconv.FormatInt(e.SampleNs, 10),
			"select_ns":   strconv.FormatInt(e.SelectNs, 10),
			"update_ns":   strconv.FormatInt(e.UpdateNs, 10),
		}})
	}
	return evs, dropped
}

// lockedBuffer is a bytes.Buffer that request spans may write to while
// the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// TestReplayMatchesEventHistory: for a 20-iteration job, a 600-iteration
// job past the history cap, an island-model job and a job resumed from a
// checkpoint, the SSE
// replay from every index (and from 2^40), the job's dropped_events, and
// the solve span's events in GET /v1/traces/{id} and in the span log are
// byte for byte what the []api.Event history and the map-building span
// events produced from the same emitted events.
func TestReplayMatchesEventHistory(t *testing.T) {
	var events, spanLog lockedBuffer
	tw := trace.NewWriter(&events)
	tr := telemetry.NewTracer(telemetry.TracerOptions{Node: "test-node", Log: telemetry.NewSpanLog(&spanLog)})
	c, _, base := newTracedServer(t, jobs.Options{Workers: 1, TraceWriter: tw, Tracer: tr})
	ctx := context.Background()
	seen := 0 // events of earlier jobs in the trace stream
	check := func(name, id string) api.JobInfo {
		t.Helper()
		final, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: Wait: %v", name, err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		all := decodeEvents(t, events.Bytes())
		emitted := all[seen:]
		seen = len(all)
		checkReplay(t, name, base, final, emitted, spanLog.Bytes())
		return final
	}
	submit := func(req api.SubmitRequest) string {
		t.Helper()
		info, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return info.ID
	}
	opts := func(seed uint64, iters int) api.SolverOptions {
		return api.SolverOptions{Seed: seed, Workers: 1, MaxIterations: iters, StallC: 1 << 30, GammaStallWindow: 1 << 30}
	}

	check("20 iterations", submit(api.SubmitRequest{Instance: instanceJSON(t, 51, 12), Solver: api.SolverMaTCH, Options: opts(3, 20)}))
	long := check("600 iterations", submit(api.SubmitRequest{Instance: instanceJSON(t, 52, 8), Solver: api.SolverMaTCH, Options: opts(4, 600)}))
	if long.DroppedEvents != 600-jobs.MaxHistoryIters {
		t.Errorf("600-iteration job: dropped_events %d, want %d", long.DroppedEvents, 600-jobs.MaxHistoryIters)
	}

	// An island-model job's iteration events carry the island fields.
	islandOpts := opts(6, 20)
	islandOpts.Workers, islandOpts.Islands, islandOpts.MigrateEvery = 2, 3, 4
	check("islands", submit(api.SubmitRequest{Instance: instanceJSON(t, 54, 12), Solver: api.SolverMaTCH, Options: islandOpts}))

	// A job cancelled mid-run hands its checkpoint to a resumed job, whose
	// iterations count on from the checkpoint's.
	doc := instanceJSON(t, 53, 8)
	id := submit(api.SubmitRequest{Instance: doc, Solver: api.SolverMaTCH, Options: opts(5, 1<<30)})
	waitIterations(t, c, id, 40)
	if _, err := c.Cancel(ctx, id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	check("cancelled", id)
	cp, err := c.Checkpoint(ctx, id)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	resumed := check("resumed", submit(api.SubmitRequest{Instance: doc, Solver: api.SolverMaTCH,
		Options: opts(5, cp.Iterations+30), Checkpoint: cp.Checkpoint}))
	if !resumed.Resumed || resumed.State != api.StateDone {
		t.Errorf("resumed job: state %s, resumed %v; want done and resumed", resumed.State, resumed.Resumed)
	}
}

// checkReplay compares one finished job's SSE replays and solve span
// with the references built from the events it emitted.
func checkReplay(t *testing.T, name, base string, info api.JobInfo, emitted []api.Event, spanLog []byte) {
	t.Helper()
	var h referenceHistory
	for _, e := range emitted {
		h.emit(e)
	}
	if len(emitted) < 3 || emitted[len(emitted)-1].Kind != api.KindEnd {
		t.Fatalf("%s: trace stream holds %d events for the job, want start, iterations, end", name, len(emitted))
	}
	if info.DroppedEvents != h.dropped {
		t.Errorf("%s: dropped_events %d, want %d", name, info.DroppedEvents, h.dropped)
	}
	froms := make([]int, 0, len(emitted)+3)
	for from := 0; from <= len(emitted)+1; from++ {
		froms = append(froms, from)
	}
	for _, from := range append(froms, 1<<40) {
		var want bytes.Buffer
		for _, e := range h.replay(from) {
			data, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&want, "event: %s\ndata: %s\n\n", e.Kind, data)
		}
		got := httpGet(t, fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", base, info.ID, from))
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: SSE replay from %d differs: got %d bytes, want %d\ngot  %.300s\nwant %.300s",
				name, from, len(got), want.Len(), got, want.Bytes())
		}
	}

	var doc api.TraceDoc
	if err := json.Unmarshal(httpGet(t, base+"/v1/traces/"+info.TraceID), &doc); err != nil {
		t.Fatalf("%s: trace document: %v", name, err)
	}
	solve := findSpan(doc.Spans, "solve")
	if solve == nil {
		t.Fatalf("%s: trace has no solve span", name)
	}
	offsets := make([]int64, len(solve.Events))
	for i, ev := range solve.Events {
		offsets[i] = ev.OffsetNs
	}
	wantEvents, wantDropped := referenceSolveEvents(emitted, offsets)
	wantJSON, err := json.Marshal(wantEvents)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(solve.Events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) || solve.DroppedEvents != wantDropped {
		t.Errorf("%s: served solve span has %d events, %d dropped; want %d and %d\ngot  %.300s\nwant %.300s",
			name, len(solve.Events), solve.DroppedEvents, len(wantEvents), wantDropped, gotJSON, wantJSON)
	}

	// The span log line of the same span carries the same events.
	var logged struct {
		SpanID  string          `json:"span_id"`
		Events  json.RawMessage `json:"events"`
		Dropped int             `json:"dropped_events"`
	}
	sc := bufio.NewScanner(bytes.NewReader(spanLog))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() && logged.SpanID != solve.SpanID {
		logged.Events, logged.Dropped = nil, 0
		if err := json.Unmarshal(sc.Bytes(), &logged); err != nil {
			t.Fatalf("%s: span log line: %v", name, err)
		}
	}
	if logged.SpanID != solve.SpanID {
		t.Fatalf("%s: span log has no line for the solve span", name)
	}
	if !bytes.Equal(logged.Events, wantJSON) || logged.Dropped != wantDropped {
		t.Errorf("%s: span log's solve span differs from the reference:\ngot  %.300s\nwant %.300s", name, logged.Events, wantJSON)
	}
}

// decodeEvents decodes a trace stream.
func decodeEvents(t *testing.T, b []byte) []api.Event {
	t.Helper()
	var evs []api.Event
	dec := json.NewDecoder(bytes.NewReader(b))
	for {
		var e api.Event
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			return evs
		} else if err != nil {
			t.Fatalf("trace stream: %v", err)
		}
		evs = append(evs, e)
	}
}

// httpGet returns a 200 response's body.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// waitIterations returns once the running job has emitted n iteration
// events.
func waitIterations(t *testing.T, c *client.Client, id string, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	seen := 0
	err := c.Events(ctx, id, func(e api.Event) {
		if e.Kind == api.KindIteration {
			if seen++; seen == n {
				cancel()
			}
		}
	})
	if seen < n {
		t.Fatalf("job %s emitted %d iteration events, want %d: %v", id, seen, n, err)
	}
}
