package jobs

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"matchsim/api"
	"matchsim/internal/memcheck"
)

// TestIdleSubscribersHeapBound: 50 subscribers that never read, attached
// to a running job past its history, hold at most 24 KB of heap each —
// their live margin and bookkeeping. A slow solve (n=96, one worker)
// keeps the job's own event history nearly still while the heap is read.
func TestIdleSubscribersHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const subs, perSub = 50, 24 << 10
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	info, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 11, 96),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 5, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// After the first iteration the solver's sample pool is allocated.
	waitForIteration(t, m, info.ID, 30*time.Second)

	before := memcheck.HeapAfterGC()
	chans := make([]<-chan api.Event, subs)
	detach := make([]func(), subs)
	for i := range chans {
		if chans[i], detach[i], err = m.SubscribeFrom(info.ID, math.MaxInt); err != nil {
			t.Fatalf("SubscribeFrom: %v", err)
		}
	}
	after := memcheck.HeapAfterGC()
	runtime.KeepAlive(chans)
	per := (int64(after) - int64(before)) / subs
	t.Logf("heap after GC: %d -> %d bytes, %d bytes per idle subscriber", before, after, per)
	if per > perSub {
		t.Errorf("%d idle subscribers hold %d bytes each, want at most %d", subs, per, perSub)
	}
	for _, d := range detach {
		d()
	}
	if _, err := m.Cancel(info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, m, info.ID, 10*time.Second)
}

// TestReadingSubscriberGetsEveryEvent: a subscriber that keeps reading
// receives every event of a 200-iteration solve, in order — start, one
// iteration event per CE iteration, end — although its live margin is
// far smaller than the solve's event count.
func TestReadingSubscriberGetsEveryEvent(t *testing.T) {
	const iters = 200
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	info, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 12, 20),
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 3, Workers: 1, MaxIterations: iters, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ch, detach, err := m.Subscribe(info.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer detach()
	var events []api.Event
	timeout := time.After(60 * time.Second)
	for open := true; open; {
		select {
		case e, ok := <-ch:
			if open = ok; ok {
				events = append(events, e)
			}
		case <-timeout:
			t.Fatalf("event stream still open after %d events", len(events))
		}
	}
	if len(events) != iters+2 {
		t.Fatalf("got %d events, want start + %d iterations + end", len(events), iters)
	}
	if events[0].Kind != api.KindStart || events[len(events)-1].Kind != api.KindEnd {
		t.Fatalf("stream runs %q ... %q, want start ... end", events[0].Kind, events[len(events)-1].Kind)
	}
	for i, e := range events[1 : iters+1] {
		if e.Kind != api.KindIteration || e.Iter != i+1 {
			t.Fatalf("event %d = %s iteration %d, want iter %d", i+1, e.Kind, e.Iter, i+1)
		}
	}
}
