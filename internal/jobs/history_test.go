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
// past 4,000 iterations and keeps the start event, 512 iteration events
// and the end event, so once finished it holds less heap than 1,000
// events would take; a new subscriber's channel is bounded, and a
// subscriber of the finished job gets the end event whatever index it
// asks to start from. (While it runs, the solver's own per-iteration
// statistics also grow; the heap is read after the solve has ended.)
func TestLongJobHistoryHeapBound(t *testing.T) {
	const retainBound = 192 << 10
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
// on a traced Manager, with the result cache off, keep at most 14 KB of
// heap each: their spans in the tracer ring (one event per CE iteration
// on the solve span) and their 22-event history. They measure about
// 11.3 KB; with each iteration's span event stored as a map of formatted
// strings they took about 17.6 KB.
func TestFinishedJobTelemetryHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const jobs, perJob = 40, 14 << 10
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
