package jobs

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"matchsim/api"
	"matchsim/internal/memcheck"
	"matchsim/internal/telemetry"
)

// drain collects a subscription's events until the channel closes.
func drain(t *testing.T, ch <-chan api.Event) []api.Event {
	t.Helper()
	var evs []api.Event
	timeout := time.After(30 * time.Second)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return evs
			}
			evs = append(evs, e)
		case <-timeout:
			t.Fatalf("subscription still open after %d events", len(evs))
		}
	}
}

// waitDropped polls until the job has emitted at least n iteration
// events past its history cap.
func waitDropped(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := m.Info(id)
		if err != nil {
			t.Fatalf("Info: %v", err)
		}
		if info.DroppedEvents >= n {
			return
		}
		if api.TerminalState(info.State) || time.Now().After(deadline) {
			t.Fatalf("job %s: %d dropped events, want %d", info.State, info.DroppedEvents, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLongJobHistoryHeapBound: an n=8 job with no iteration cap runs
// past 4,000 iterations and keeps the start event, 512 136-byte
// iteration records and the end event, so once finished it holds at most
// 96 KB (about 77 KB measured; 133 KB when the history kept 248-byte
// events); a new subscriber's channel is bounded, and a subscriber of the
// finished job gets the end event whatever index it asks to start from.
func TestLongJobHistoryHeapBound(t *testing.T) {
	const retainBound = 96 << 10
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	submit := func(maxIters int) string {
		info, err := m.Submit(api.SubmitRequest{
			Instance: instanceJSON(t, 13, 8),
			Solver:   api.SolverMaTCH,
			Options:  api.SolverOptions{Seed: uint64(maxIters), Workers: 1, MaxIterations: maxIters, StallC: 1 << 30, GammaStallWindow: 1 << 30},
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return info.ID
	}
	// A short job first, so the baseline holds the manager's lazily
	// built state.
	waitState(t, m, submit(5), api.StateDone, 30*time.Second)
	before := memcheck.HeapAfterGC()
	id := submit(1 << 30)
	waitDropped(t, m, id, 4000-MaxHistoryIters)

	ch, detach, err := m.SubscribeFrom(id, 0)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	if max := MaxHistoryIters + 2 + liveMargin; cap(ch) > max {
		t.Errorf("subscriber channel holds %d events, want at most %d", cap(ch), max)
	}
	detach()

	if _, err := m.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitTerminal(t, m, id, 10*time.Second)
	if final.DroppedEvents < 4000-MaxHistoryIters {
		t.Errorf("JobInfo.DroppedEvents = %d, want at least %d", final.DroppedEvents, 4000-MaxHistoryIters)
	}
	if after := memcheck.HeapAfterGC(); !memcheck.RaceEnabled {
		held := int64(after) - int64(before)
		t.Logf("heap after GC: %d -> %d bytes, %d held by a job of %d iterations", before, after, held, final.DroppedEvents+MaxHistoryIters)
		if held > retainBound {
			t.Errorf("finished long job holds %d bytes, want at most %d", held, retainBound)
		}
	}
	ch, _, err = m.SubscribeFrom(id, 0)
	if err != nil {
		t.Fatalf("SubscribeFrom: %v", err)
	}
	replay := drain(t, ch)
	if len(replay) != MaxHistoryIters+2 {
		t.Fatalf("finished job replays %d events, want %d", len(replay), MaxHistoryIters+2)
	}
	if replay[0].Kind != api.KindStart || replay[len(replay)-1].Kind != api.KindEnd {
		t.Fatalf("replay runs %q ... %q, want start ... end", replay[0].Kind, replay[len(replay)-1].Kind)
	}
	for i, e := range replay[1 : MaxHistoryIters+1] {
		if e.Kind != api.KindIteration || e.Iter != i+1 {
			t.Fatalf("replayed event %d = %s iteration %d, want iter %d", i+1, e.Kind, e.Iter, i+1)
		}
	}
	// Past the retained history, inside the dropped range and past every
	// emitted event, the subscriber still receives the end event.
	for _, from := range []int{MaxHistoryIters + 1, 3000, final.DroppedEvents + MaxHistoryIters + 1, 1 << 40} {
		ch, _, err := m.SubscribeFrom(id, from)
		if err != nil {
			t.Fatalf("SubscribeFrom(%d): %v", from, err)
		}
		if got := drain(t, ch); len(got) != 1 || got[0].Kind != api.KindEnd {
			t.Errorf("SubscribeFrom(%d) on the finished job sent %d events, want the end event alone", from, len(got))
		}
	}
}

// TestRunningJobHeapBound: an uncapped n=8 job holds at most 32 KB more
// heap at iteration 4,000 than at iteration 2,000. Past the history cap
// nothing it keeps grows with the iteration count: not its history, not
// its solve span, not the solver's per-iteration statistics.
func TestRunningJobHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const growthBound = 32 << 10
	m := New(Options{Workers: 1, Tracer: telemetry.NewTracer(telemetry.TracerOptions{Node: "heap"})})
	defer m.Shutdown(context.Background())
	info, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 16, 8),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 6, Workers: 1, MaxIterations: 1 << 30, StallC: 1 << 30, GammaStallWindow: 1 << 30},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDropped(t, m, info.ID, 2000-MaxHistoryIters)
	before := memcheck.HeapAfterGC()
	waitDropped(t, m, info.ID, 4000-MaxHistoryIters)
	after := memcheck.HeapAfterGC()
	if _, err := m.Cancel(info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, m, info.ID, 10*time.Second)
	grew := int64(after) - int64(before)
	t.Logf("heap after GC: %d -> %d bytes, %d grown over iterations 2,000-4,000", before, after, grew)
	if grew > growthBound {
		t.Errorf("running job grew %d bytes over 2,000 iterations, want at most %d", grew, growthBound)
	}
}

// TestShortJobReplayUnchanged: a 20-iteration job, well under the
// history cap, replays exactly what a live subscriber saw, from every
// index; an index at or past the end event replays the end event.
func TestShortJobReplayUnchanged(t *testing.T) {
	const iters = 20
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	info, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 14, 12),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 4, Workers: 1, MaxIterations: iters, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ch, _, err := m.Subscribe(info.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	live := drain(t, ch)
	if len(live) != iters+2 {
		t.Fatalf("live subscriber got %d events, want %d", len(live), iters+2)
	}
	if final := waitTerminal(t, m, info.ID, 10*time.Second); final.DroppedEvents != 0 {
		t.Fatalf("JobInfo.DroppedEvents = %d, want 0", final.DroppedEvents)
	}
	for from := 0; from <= len(live)+1; from++ {
		ch, _, err := m.SubscribeFrom(info.ID, from)
		if err != nil {
			t.Fatalf("SubscribeFrom(%d): %v", from, err)
		}
		want := live[min(from, len(live)-1):]
		if got := drain(t, ch); !reflect.DeepEqual(got, want) {
			t.Fatalf("SubscribeFrom(%d) replayed %d events, want %d matching the live stream", from, len(got), len(want))
		}
	}
}

// TestFinishedJobTelemetryHeapBound: 40 finished n=12, 20-iteration jobs
// on a traced Manager, with the result cache off, keep at most 8 KB of
// heap each: their spans in the tracer ring and their history, whose 20
// iteration records the solve span reads as its events. They measure
// about 6 KB; with the history's own 248-byte events, a 96-byte span
// event per iteration and map attributes they took about 11.3 KB, and
// with each span event a map of formatted strings about 17.6 KB.
func TestFinishedJobTelemetryHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const jobs, perJob = 40, 8 << 10
	doc := instanceJSON(t, 15, 12)
	m := New(Options{Workers: 2, CacheCapacity: -1,
		Tracer: telemetry.NewTracer(telemetry.TracerOptions{Node: "heap"})})
	defer m.Shutdown(context.Background())
	submit := func(seed uint64) string {
		info, err := m.Submit(api.SubmitRequest{Instance: bytes.Clone(doc), Solver: api.SolverMaTCH,
			Options: api.SolverOptions{Seed: seed, Workers: 1, MaxIterations: 20, StallC: 100000, GammaStallWindow: 100000}})
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	// One job first, so the heap baseline already holds the manager's
	// lazily built state (metric series, pools, the ring's first slots).
	waitState(t, m, submit(0), api.StateDone, 30*time.Second)
	before := memcheck.HeapAfterGC()
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = submit(uint64(i + 1))
	}
	for _, id := range ids {
		waitState(t, m, id, api.StateDone, 30*time.Second)
	}
	after := memcheck.HeapAfterGC()
	runtime.KeepAlive(doc)
	per := (int64(after) - int64(before)) / jobs
	t.Logf("heap after GC: %d -> %d bytes, %d bytes per finished traced job", before, after, per)
	if per > perJob {
		t.Errorf("%d finished traced jobs hold %d bytes each, want at most %d", jobs, per, perJob)
	}
}

// TestIterRecordRoundTrip: an iteration event made into a history record
// renders back as the same event, with every iteration field (Iter
// through BlendRounds) set to a distinct nonzero value, so a dropped or
// swapped field shows.
func TestIterRecordRoundTrip(t *testing.T) {
	e := api.Event{Kind: api.KindIteration}
	v := reflect.ValueOf(&e).Elem()
	typ := v.Type()
	first, _ := typ.FieldByName("Iter")
	last, _ := typ.FieldByName("BlendRounds")
	for i := first.Index[0]; i <= last.Index[0]; i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(100 + i))
		case reflect.Uint64:
			f.SetUint(uint64(100 + i))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		default:
			t.Fatalf("iteration field %s has kind %s, which the test does not fill", typ.Field(i).Name, f.Kind())
		}
	}
	rec := iterRecord(e, 12345)
	if rec.OffsetNs != 12345 {
		t.Errorf("record offset %d, want 12345", rec.OffsetNs)
	}
	if got := iterEvent(&rec); got != e {
		t.Errorf("round trip changed the event:\ngot  %+v\nwant %+v", got, e)
	}
}

// TestRenderedStartEndEvents: the start and end events a job's history
// renders from its state are the ones the job emitted: the start event
// only once it started, the result's outcome at the end, else the reason
// a result-less job stopped.
func TestRenderedStartEndEvents(t *testing.T) {
	res := &api.JobResult{Exec: 12.5, Iterations: 30, Evaluations: 900, MappingTime: time.Second, StopReason: "stall"}
	started := time.Unix(100, 0)
	cases := []struct {
		name string
		j    job
		end  api.Event
	}{
		{"done", job{state: api.StateDone, started: started, result: res}, endEvent(res)},
		{"failed", job{state: api.StateFailed, started: started}, api.Event{Kind: api.KindEnd, StopReason: "failed"}},
		{"cancelled", job{state: api.StateCancelled, started: started}, api.Event{Kind: api.KindEnd, StopReason: "cancelled"}},
		{"cancelled while queued", job{state: api.StateCancelled}, api.Event{Kind: api.KindEnd, StopReason: "cancelled while queued"}},
	}
	for _, c := range cases {
		if got := c.j.endEvent(); got != c.end {
			t.Errorf("%s: end event %+v, want %+v", c.name, got, c.end)
		}
	}

	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	opts := api.SolverOptions{Seed: 8, Workers: 1, MaxIterations: 1 << 30, StallC: 1 << 30, GammaStallWindow: 1 << 30}
	running, err := m.Submit(api.SubmitRequest{Instance: instanceJSON(t, 8, 8), Solver: api.SolverMaTCH, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitForIteration(t, m, running.ID, 30*time.Second)
	queued, err := m.Submit(api.SubmitRequest{Instance: instanceJSON(t, 9, 8), Solver: api.SolverMaTCH, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
		waitState(t, m, id, api.StateCancelled, 30*time.Second)
	}
	replay := func(id string) []api.Event {
		ch, _, err := m.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		var evs []api.Event
		for e := range ch {
			evs = append(evs, e)
		}
		return evs
	}
	if evs := replay(queued.ID); len(evs) != 1 || evs[0] != (api.Event{Kind: api.KindEnd, StopReason: "cancelled while queued"}) {
		t.Errorf("job cancelled while queued replays %+v, want only its end event", evs)
	}
	evs := replay(running.ID)
	wantStart := api.Event{Kind: api.KindStart, Solver: api.SolverMaTCH, Tasks: 8, Seed: 8}
	if len(evs) < 3 || evs[0] != wantStart || evs[len(evs)-1] != (api.Event{Kind: api.KindEnd, StopReason: "cancelled"}) {
		t.Errorf("job cancelled while running replays %+v; want %+v, iterations and a cancelled end", evs, wantStart)
	}
}
