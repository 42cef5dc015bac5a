package jobs

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"matchsim/api"
	"matchsim/internal/memcheck"
)

// TestRetirerCountAndAge: the oldest finished jobs leave first, past the
// count cap or the age cap, and a retired id is remembered as retired.
func TestRetirerCountAndAge(t *testing.T) {
	rt := NewRetirer(2, time.Minute)
	t0 := time.Now()
	var dropped []string
	drop := func(id string) { dropped = append(dropped, id) }
	for i, id := range []string{"a", "b", "c"} {
		rt.Finished(id, t0.Add(time.Duration(i)*time.Second))
		rt.Expire(t0, drop)
	}
	if len(dropped) != 1 || dropped[0] != "a" {
		t.Fatalf("count cap retired %v, want [a]", dropped)
	}
	rt.Expire(t0.Add(time.Minute+1500*time.Millisecond), drop)
	if len(dropped) != 2 || dropped[1] != "b" {
		t.Fatalf("age cap retired %v, want [a b]", dropped)
	}
	if !rt.Retired("a") || !rt.Retired("b") || rt.Retired("c") || rt.Retired("zzz") {
		t.Fatal("retired set wrong")
	}
}

// TestRetirerForgetsOldTombstones: only the last 4*MaxFinished retired
// ids are remembered.
func TestRetirerForgetsOldTombstones(t *testing.T) {
	rt := NewRetirer(1, RetainFor)
	now := time.Now()
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		rt.Finished(id, now)
		rt.Expire(now, func(string) {})
	}
	// a..e are retired (f is held); the ring of 4 keeps b..e.
	for id, want := range map[string]bool{"a": false, "b": true, "e": true, "f": false} {
		if got := rt.Retired(id); got != want {
			t.Errorf("Retired(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestManagerRetiresFinishedJobs: past the count cap the oldest finished
// job leaves the store; its id answers ErrRetiredJob (which is also an
// ErrUnknownJob) on every lookup, and a never-issued id stays plain
// unknown.
func TestManagerRetiresFinishedJobs(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	m.retire = NewRetirer(2, RetainFor)
	doc := instanceJSON(t, 3, 8)
	var ids []string
	for i := 0; i < 3; i++ {
		info, err := m.Submit(api.SubmitRequest{Instance: doc, Solver: api.SolverGreedy, Options: api.SolverOptions{Seed: uint64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, info.ID, 10*time.Second)
		ids = append(ids, info.ID)
	}
	old := ids[0]
	_, errInfo := m.Info(old)
	_, errWait := m.WaitInfo(context.Background(), old, api.StateRunning)
	_, errResult := m.Result(old)
	_, errCancel := m.Cancel(old)
	_, errCkpt := m.Checkpoint(old)
	_, _, errSub := m.SubscribeFrom(old, 0)
	for name, err := range map[string]error{"Info": errInfo, "WaitInfo": errWait, "Result": errResult,
		"Cancel": errCancel, "Checkpoint": errCkpt, "Subscribe": errSub} {
		if !errors.Is(err, ErrRetiredJob) || !errors.Is(err, ErrUnknownJob) {
			t.Errorf("%s of a retired job: %v, want ErrRetiredJob", name, err)
		}
	}
	if _, err := m.Info("jmissing"); !errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrRetiredJob) {
		t.Errorf("Info of a never-issued id: %v, want plain ErrUnknownJob", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Result(id); err != nil {
			t.Errorf("retained job %s: %v", id, err)
		}
	}
	if got := m.Stats().JobsByState[api.StateDone]; got != 2 {
		t.Errorf("store holds %d done jobs, want 2", got)
	}
}

// TestManagerRetiresByAge: a finished job older than the age cap is
// retired on the next lookup, with no new job finishing.
func TestManagerRetiresByAge(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	m.retire = NewRetirer(RetainFinished, 20*time.Millisecond)
	info, err := m.Submit(api.SubmitRequest{Instance: instanceJSON(t, 3, 8), Solver: api.SolverGreedy})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, info.ID, 10*time.Second)
	time.Sleep(40 * time.Millisecond)
	if _, err := m.Info(info.ID); !errors.Is(err, ErrRetiredJob) {
		t.Fatalf("Info after the age cap: %v, want ErrRetiredJob", err)
	}
}

// TestFinishedJobStateReleased: a done job keeps its info, result and
// event history, and no checkpoint; a user-cancelled one keeps the
// checkpoint a handoff resumes from.
func TestFinishedJobStateReleased(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	doc := instanceJSON(t, 5, 10)
	done, err := m.Submit(api.SubmitRequest{Instance: doc, Solver: api.SolverMaTCH, CheckpointEvery: 1,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 5}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, done.ID, api.StateDone, 30*time.Second)
	if _, err := m.Checkpoint(done.ID); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Checkpoint of a done job: %v, want ErrNoCheckpoint", err)
	}
	ch, _, err := m.Subscribe(done.ID)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for e := range ch {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) < 3 || kinds[0] != api.KindStart || kinds[len(kinds)-1] != api.KindEnd {
		t.Errorf("replayed history %v, want start, iterations, end", kinds)
	}
	m.mu.Lock()
	j := m.jobs[done.ID]
	if j.problem != nil || j.req.Instance != nil || j.checkpoint != nil || j.exported != nil || j.iters.Spare() != 0 {
		t.Errorf("done job still holds state: problem %v, instance %d bytes, checkpoint %v, exported %v, iteration log slack %d",
			j.problem != nil, len(j.req.Instance), j.checkpoint != nil, j.exported != nil, j.iters.Spare())
	}
	m.mu.Unlock()

	long, err := m.Submit(api.SubmitRequest{Instance: doc, Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 2, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000}})
	if err != nil {
		t.Fatal(err)
	}
	waitForIteration(t, m, long.ID, 30*time.Second)
	if _, err := m.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, long.ID, api.StateCancelled, 30*time.Second)
	if doc, err := m.Checkpoint(long.ID); err != nil || doc.Iterations == 0 {
		t.Errorf("Checkpoint of a cancelled job: %+v, %v; want its interrupted state", doc, err)
	}
}

// TestCacheHitHoldsNoProblem: a job answered from the cache never holds
// the problem or instance Admit parsed for it.
func TestCacheHitHoldsNoProblem(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	req := api.SubmitRequest{Instance: instanceJSON(t, 6, 8), Solver: api.SolverGreedy}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, api.StateDone, 10*time.Second)
	hit, err := m.Submit(req)
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmission: %+v, %v; want a cache hit", hit, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if j := m.jobs[hit.ID]; j.problem != nil || j.req.Instance != nil {
		t.Error("cache-hit job holds its problem or instance")
	}
}

// TestFinishedJobsHeapBound: 40 finished n=256 greedy jobs on one
// Manager, with the result cache off, keep at most 64 KB of heap each.
// Each submission carries its own copy of the instance document, as
// separate HTTP requests would.
func TestFinishedJobsHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const jobs, perJob = 40, 64 << 10
	doc := instanceJSON(t, 11, 256)
	m := New(Options{Workers: 2, CacheCapacity: -1})
	defer m.Shutdown(context.Background())
	submit := func(seed uint64) string {
		info, err := m.Submit(api.SubmitRequest{Instance: bytes.Clone(doc), Solver: api.SolverGreedy,
			Options: api.SolverOptions{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	// One job first, so the heap baseline already holds the manager's
	// lazily built state (metric series, pools).
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
	runtime.KeepAlive(doc) // part of both readings
	per := (int64(after) - int64(before)) / jobs
	t.Logf("heap after GC: %d -> %d bytes, %d bytes per finished job", before, after, per)
	if per > perJob {
		t.Errorf("%d finished jobs hold %d bytes each, want at most %d", jobs, per, perJob)
	}
}
