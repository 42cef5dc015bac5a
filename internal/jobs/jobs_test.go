package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
)

// instanceJSON serialises a synthetic paper instance for submission.
func instanceJSON(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	p, err := matchsim.GeneratePaper(seed, n)
	if err != nil {
		t.Fatalf("GeneratePaper: %v", err)
	}
	var buf bytes.Buffer
	if err := p.WriteInstance(&buf); err != nil {
		t.Fatalf("WriteInstance: %v", err)
	}
	return buf.Bytes()
}

func waitState(t *testing.T, m *Manager, id string, want string, timeout time.Duration) api.JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info, err := m.Info(id)
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		if info.State == want {
			return info
		}
		if api.TerminalState(info.State) {
			t.Fatalf("job %s reached terminal state %q (error %q) while waiting for %q", id, info.State, info.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, info.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, m *Manager, id string, timeout time.Duration) api.JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info, err := m.Info(id)
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		if api.TerminalState(info.State) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state (stuck in %q)", id, info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitSolveAndDeterminism checks the core promise: a job submitted
// through the service produces the bit-identical mapping of a direct
// library call with the same seed and worker count.
func TestSubmitSolveAndDeterminism(t *testing.T) {
	m := New(Options{Workers: 2})
	defer m.Shutdown(context.Background())

	inst := instanceJSON(t, 7, 12)
	opts := api.SolverOptions{Seed: 42, Workers: 2}
	info, err := m.Submit(api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH, Options: opts})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.State != api.StateQueued {
		t.Fatalf("fresh submission state = %q, want queued", info.State)
	}
	if info.Key == "" {
		t.Fatal("submission has no content key")
	}
	final := waitTerminal(t, m, info.ID, 30*time.Second)
	if final.State != api.StateDone {
		t.Fatalf("job ended %q (error %q), want done", final.State, final.Error)
	}
	res, err := m.Result(info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	p, err := matchsim.ReadProblem(bytes.NewReader(inst))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	direct, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	if !reflect.DeepEqual(res.Mapping, direct.Mapping) {
		t.Errorf("service mapping %v != direct mapping %v", res.Mapping, direct.Mapping)
	}
	if res.Exec != direct.Exec {
		t.Errorf("service exec %v != direct exec %v", res.Exec, direct.Exec)
	}
	if res.Evaluations != direct.Evaluations {
		t.Errorf("service evaluations %d != direct %d", res.Evaluations, direct.Evaluations)
	}
}

// TestKeyOptions pins which option differences change a submission's
// content address: real solver knobs and a checkpoint do, options the
// solver ignores (unpruned_scoring, sparse_eps and sparse_cut, accepted
// on the wire for older clients) do not. The checkpoint-free address is pinned to its recorded
// bytes, so caches and ring routes survive upgrades.
func TestKeyOptions(t *testing.T) {
	p, err := matchsim.ReadProblem(bytes.NewReader(instanceJSON(t, 3, 10)))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	base := api.SolverOptions{Seed: 9, Workers: 1}
	baseKey, err := Key(p, api.SolverMaTCH, base, nil)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if want := "e266b23cf7471b3c82c2c361c0a3ed298eb8496cb7e701b78c94bc0a19dbb3b9"; baseKey != want {
		t.Errorf("checkpoint-free key = %s, want the recorded %s", baseKey, want)
	}
	ckKey, err := Key(p, api.SolverMaTCH, base, []byte(`{"version":2}`))
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if ckKey == baseKey {
		t.Error("a checkpoint does not change the key")
	}
	for _, c := range []struct {
		name string
		edit func(*api.SolverOptions)
		same bool
	}{
		{"identical", func(*api.SolverOptions) {}, true},
		{"unpruned_scoring is ignored", func(o *api.SolverOptions) { o.UnprunedScoring = true }, true},
		{"sparse_eps and sparse_cut are ignored", func(o *api.SolverOptions) { o.SparseEps, o.SparseCut = 1e-4, 64 }, true},
		{"seed changes the key", func(o *api.SolverOptions) { o.Seed = 10 }, false},
		{"iteration cap changes the key", func(o *api.SolverOptions) { o.MaxIterations = 5 }, false},
	} {
		opts := base
		c.edit(&opts)
		key, err := Key(p, api.SolverMaTCH, opts, nil)
		if err != nil {
			t.Fatalf("%s: Key: %v", c.name, err)
		}
		if (key == baseKey) != c.same {
			t.Errorf("%s: key equal to base = %v, want %v", c.name, key == baseKey, c.same)
		}
	}
}

// TestCacheHit checks that an identical resubmission is answered from the
// result cache: done immediately, zero new solver runs, same mapping.
func TestCacheHit(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())

	inst := instanceJSON(t, 3, 10)
	req := api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH, Options: api.SolverOptions{Seed: 9, Workers: 1}}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, m, first.ID, 30*time.Second)
	firstRes, err := m.Result(first.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	solvesBefore := m.Stats().SolvesTotal

	// Same logical instance with different JSON formatting must still hit:
	// the key is computed over the canonical re-marshalled form.
	var compact bytes.Buffer
	if err := compactJSON(&compact, inst); err != nil {
		t.Fatalf("compacting instance: %v", err)
	}
	second, err := m.Submit(api.SubmitRequest{Instance: compact.Bytes(), Solver: req.Solver, Options: req.Options})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if second.State != api.StateDone || !second.CacheHit {
		t.Fatalf("resubmission state=%q cacheHit=%v, want done/true", second.State, second.CacheHit)
	}
	if second.Key != first.Key {
		t.Errorf("content keys differ across formatting: %q vs %q", second.Key, first.Key)
	}
	secondRes, err := m.Result(second.ID)
	if err != nil {
		t.Fatalf("cached Result: %v", err)
	}
	if !secondRes.CacheHit {
		t.Error("cached result not marked CacheHit")
	}
	if !reflect.DeepEqual(secondRes.Mapping, firstRes.Mapping) || secondRes.Exec != firstRes.Exec {
		t.Errorf("cached result differs: %v/%v vs %v/%v", secondRes.Mapping, secondRes.Exec, firstRes.Mapping, firstRes.Exec)
	}
	st := m.Stats()
	if st.SolvesTotal != solvesBefore {
		t.Errorf("cache hit ran the solver: %d solves, want %d", st.SolvesTotal, solvesBefore)
	}
	if st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}
	// The hit's event stream still replays as a complete run.
	ch, detach, err := m.Subscribe(second.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer detach()
	var kinds []string
	for e := range ch {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) != 2 || kinds[0] != "start" || kinds[1] != "end" {
		t.Errorf("cache-hit events = %v, want [start end]", kinds)
	}
}

func compactJSON(dst *bytes.Buffer, src []byte) error {
	return json.Compact(dst, src)
}

// TestCancelRunning checks that DELETE semantics stop a running CE job
// within one iteration and that the job lands in cancelled, not done.
func TestCancelRunning(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())

	// A larger instance with a high iteration cap runs long enough to
	// catch mid-flight.
	inst := instanceJSON(t, 11, 28)
	info, err := m.Submit(api.SubmitRequest{
		Instance: inst,
		Solver:   api.SolverMaTCH,
		Options:  api.SolverOptions{Seed: 5, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, info.ID, api.StateRunning, 10*time.Second)
	if _, err := m.Cancel(info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitTerminal(t, m, info.ID, 10*time.Second)
	if final.State != api.StateCancelled {
		t.Fatalf("cancelled job ended %q, want cancelled", final.State)
	}
	if _, err := m.Result(info.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("Result of cancelled job: %v, want ErrNotDone", err)
	}
}

// TestCancelQueued checks that cancelling a job that never started
// finalises it immediately.
func TestCancelQueued(t *testing.T) {
	m := New(Options{Workers: 1, QueueCapacity: 4})
	defer m.Shutdown(context.Background())

	// Occupy the single worker.
	big := instanceJSON(t, 2, 28)
	blocker, err := m.Submit(api.SubmitRequest{
		Instance: big, Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitState(t, m, blocker.ID, api.StateRunning, 10*time.Second)

	queued, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 4, 8), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 2, Workers: 1},
	})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	info, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if info.State != api.StateCancelled {
		t.Fatalf("queued job state after cancel = %q, want cancelled", info.State)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	waitTerminal(t, m, blocker.ID, 10*time.Second)
}

// TestQueueFull checks backpressure: with the worker busy and the queue
// at capacity, submissions are refused with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	m := New(Options{Workers: 1, QueueCapacity: 1})
	defer m.Shutdown(context.Background())

	big := instanceJSON(t, 21, 28)
	blocker, err := m.Submit(api.SubmitRequest{
		Instance: big, Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitState(t, m, blocker.ID, api.StateRunning, 10*time.Second)

	// Fills the single queue slot.
	if _, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 22, 8), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 2, Workers: 1},
	}); err != nil {
		t.Fatalf("Submit filler: %v", err)
	}
	_, err = m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 23, 8), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 3, Workers: 1},
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission error = %v, want ErrQueueFull", err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
}

// TestSubmitValidation checks invalid requests are rejected up front.
func TestSubmitValidation(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())

	if _, err := m.Submit(api.SubmitRequest{Instance: []byte("{}"), Solver: "no-such"}); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := m.Submit(api.SubmitRequest{Solver: api.SolverMaTCH}); err == nil {
		t.Error("empty instance accepted")
	}
	if _, err := m.Submit(api.SubmitRequest{Instance: []byte("{not json"), Solver: api.SolverMaTCH}); err == nil {
		t.Error("malformed instance accepted")
	}
	if _, err := m.Info("jdeadbeef"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Info of unknown id: %v, want ErrUnknownJob", err)
	}
}

// TestSubscribeStreamsIterations checks live subscribers observe start,
// per-iteration telemetry and the end event in order.
func TestSubscribeStreamsIterations(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())

	info, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 6, 10), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 8, Workers: 1},
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
	timeout := time.After(30 * time.Second)
	for {
		select {
		case e, open := <-ch:
			if !open {
				goto streamDone
			}
			events = append(events, e)
		case <-timeout:
			t.Fatal("event stream never closed")
		}
	}
streamDone:
	if len(events) < 3 {
		t.Fatalf("got %d events, want start + iterations + end", len(events))
	}
	if events[0].Kind != "start" || events[0].Solver != api.SolverMaTCH {
		t.Errorf("first event = %+v, want start/match", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != "end" || last.Exec <= 0 {
		t.Errorf("last event = %+v, want end with positive exec", last)
	}
	for i, e := range events[1 : len(events)-1] {
		if e.Kind != "iter" {
			t.Fatalf("middle event %d kind = %q, want iter", i, e.Kind)
		}
	}
	res, err := m.Result(info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if len(events)-2 != res.Iterations {
		t.Errorf("streamed %d iteration events, result reports %d iterations", len(events)-2, res.Iterations)
	}
}

// TestShutdownPersistsAndRestoreResumes is the restart acceptance test: a
// SIGTERM-style shutdown checkpoints a running CE job; a new manager over
// the same directory resumes it under its original id and completes it.
func TestShutdownPersistsAndRestoreResumes(t *testing.T) {
	dir := t.TempDir()
	m := New(Options{Workers: 1, CheckpointDir: dir})

	inst := instanceJSON(t, 13, 16)
	info, err := m.Submit(api.SubmitRequest{
		Instance: inst, Solver: api.SolverMaTCH,
		// Stall stops are pinned off so only the iteration cap ends the
		// run: long enough to be caught mid-flight by Shutdown, bounded
		// enough that the resumed job completes within the wait below.
		Options: api.SolverOptions{Seed: 17, Workers: 1, MaxIterations: 300, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, info.ID, api.StateRunning, 10*time.Second)
	// Let it bank at least one iteration so a checkpoint exists.
	waitForIteration(t, m, info.ID, 10*time.Second)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	path := filepath.Join(dir, info.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint file after shutdown: %v", err)
	}
	if !strings.Contains(string(data), `"checkpoint"`) {
		t.Errorf("persisted job %s carries no checkpoint:\n%s", info.ID, data)
	}

	// Restart: a fresh manager restores and finishes the job.
	m2 := New(Options{Workers: 1, CheckpointDir: dir})
	defer m2.Shutdown(context.Background())
	restored, err := m2.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d jobs, want 1", restored)
	}
	resumedInfo, err := m2.Info(info.ID)
	if err != nil {
		t.Fatalf("restored job lost its id: %v", err)
	}
	if !resumedInfo.Resumed {
		t.Error("restored job not marked Resumed")
	}
	final := waitTerminal(t, m2, info.ID, 60*time.Second)
	if final.State != api.StateDone {
		t.Fatalf("resumed job ended %q (error %q), want done", final.State, final.Error)
	}
	res, err := m2.Result(info.ID)
	if err != nil {
		t.Fatalf("Result after resume: %v", err)
	}
	p, _ := matchsim.ReadProblem(bytes.NewReader(inst))
	if err := validMapping(p, res.Mapping); err != nil {
		t.Errorf("resumed result invalid: %v", err)
	}
	// The resume is exact: the result is the uninterrupted run's.
	want, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{
		Seed: 17, Workers: 1, MaxIterations: 300, StallC: 100000, GammaStallWindow: 100000,
	})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	if math.Float64bits(res.Exec) != math.Float64bits(want.Exec) || !slices.Equal(res.Mapping, want.Mapping) ||
		res.Iterations != want.Iterations || res.Evaluations != want.Evaluations {
		t.Errorf("resumed result exec %v (%d iterations) differs from the uninterrupted %v (%d)",
			res.Exec, res.Iterations, want.Exec, want.Iterations)
	}
	// The spent checkpoint file is cleaned up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("checkpoint file %s not removed after resume completed", path)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestoreMultilevelSolvesFresh covers a checkpoint that cannot
// resume exactly: a persisted job whose options request the multilevel
// pipeline but that carries a plain single-population checkpoint (e.g.
// written by an older daemon). The checkpoint is dropped and the job
// solves fresh, ending bit-identical to a fresh multilevel library solve.
func TestRestoreMultilevelSolvesFresh(t *testing.T) {
	dir := t.TempDir()
	inst := instanceJSON(t, 31, 16)
	p, err := matchsim.ReadProblem(bytes.NewReader(inst))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	sol, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 31, Workers: 1, MaxIterations: 5})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	enc, err := sol.Checkpoint().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	pj := persistedJob{
		ID: "jmultilevelfresh01",
		Request: api.SubmitRequest{
			Instance: inst, Solver: api.SolverMaTCH,
			Options: api.SolverOptions{
				Seed: 31, Workers: 1, MaxIterations: 20,
				Multilevel: true, MinCoarse: 8,
			},
		},
		Created:    time.Now(),
		Checkpoint: enc,
	}
	data, err := json.Marshal(&pj)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, persistFileName(pj.ID)), data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	m := New(Options{Workers: 1, CheckpointDir: dir})
	defer m.Shutdown(context.Background())
	restored, err := m.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d jobs, want 1", restored)
	}
	final := waitTerminal(t, m, pj.ID, 60*time.Second)
	if final.State != api.StateDone {
		t.Fatalf("restored job ended %q (error %q), want done", final.State, final.Error)
	}
	if !final.Resumed {
		t.Error("restored job not marked Resumed")
	}
	res, err := m.Result(pj.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	want, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{
		Seed: 31, Workers: 1, MaxIterations: 20,
		Multilevel: &matchsim.MultilevelOptions{MinCoarse: 8},
	})
	if err != nil {
		t.Fatalf("SolveMaTCH multilevel: %v", err)
	}
	if res.Solver != want.Solver || math.Float64bits(res.Exec) != math.Float64bits(want.Exec) ||
		!slices.Equal(res.Mapping, want.Mapping) || res.Iterations != want.Iterations {
		t.Errorf("restored job %s exec %v iterations %d, want fresh %s exec %v iterations %d",
			res.Solver, res.Exec, res.Iterations, want.Solver, want.Exec, want.Iterations)
	}
}

// TestSubmitRejectsForgedCheckpoint: a checkpoint whose best_exec is not
// its incumbent's score is an invalid submission, not a result to serve.
func TestSubmitRejectsForgedCheckpoint(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	inst := instanceJSON(t, 33, 12)
	p, err := matchsim.ReadProblem(bytes.NewReader(inst))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	sol, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 3, Workers: 1, MaxIterations: 4})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	cp := sol.Checkpoint()
	cp.BestExec = 1
	enc, err := cp.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	_, err = m.Submit(api.SubmitRequest{
		Instance: inst, Solver: api.SolverMaTCH, Checkpoint: enc,
		Options: api.SolverOptions{Seed: 3, Workers: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "invalid checkpoint") {
		t.Fatalf("forged best_exec submission: err = %v, want an invalid-checkpoint error", err)
	}
}

// TestSubmitLegacyCheckpointSolvesFresh: an unversioned checkpoint still
// decodes, but cannot resume exactly, so it is dropped: the job solves
// fresh under the fresh content address and ends with the fresh bits.
func TestSubmitLegacyCheckpointSolvesFresh(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	inst := instanceJSON(t, 35, 10)
	p, err := matchsim.ReadProblem(bytes.NewReader(inst))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	short, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 5, Workers: 1, MaxIterations: 3})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	legacy := short.Checkpoint()
	legacy.Version = 0
	enc, err := legacy.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	opts := api.SolverOptions{Seed: 5, Workers: 1}
	info, err := m.Submit(api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH, Options: opts, Checkpoint: enc})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	freshKey, err := Key(p, api.SolverMaTCH, opts, nil)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if info.Resumed || info.Key != freshKey {
		t.Errorf("legacy checkpoint job: resumed %v, key %s; want a fresh job under %s", info.Resumed, info.Key, freshKey)
	}
	if final := waitTerminal(t, m, info.ID, 30*time.Second); final.State != api.StateDone {
		t.Fatalf("job ended %q (error %q)", final.State, final.Error)
	}
	res, err := m.Result(info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	want, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	if math.Float64bits(res.Exec) != math.Float64bits(want.Exec) || !slices.Equal(res.Mapping, want.Mapping) {
		t.Errorf("legacy checkpoint job exec %v, want the fresh solve's %v", res.Exec, want.Exec)
	}
}

// TestSubmitCheckpointResumesExactly: submitting a mid-run checkpoint
// resumes to the uninterrupted run's result, and the result is cached
// under the checkpoint's own content address, never the fresh one.
func TestSubmitCheckpointResumesExactly(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Shutdown(context.Background())
	inst := instanceJSON(t, 34, 12)
	p, err := matchsim.ReadProblem(bytes.NewReader(inst))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	opts := api.SolverOptions{Seed: 4, Workers: 2}
	short, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 4, Workers: 1, MaxIterations: 3})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	enc, err := short.Checkpoint().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	req := api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH, Options: opts, Checkpoint: enc}
	info, err := m.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !info.Resumed {
		t.Error("checkpoint submission not marked Resumed")
	}
	if final := waitTerminal(t, m, info.ID, 30*time.Second); final.State != api.StateDone {
		t.Fatalf("resumed job ended %q (error %q)", final.State, final.Error)
	}
	res, err := m.Result(info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	want, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: 4, Workers: 1})
	if err != nil {
		t.Fatalf("SolveMaTCH: %v", err)
	}
	if math.Float64bits(res.Exec) != math.Float64bits(want.Exec) || !slices.Equal(res.Mapping, want.Mapping) ||
		res.Iterations != want.Iterations || res.Evaluations != want.Evaluations {
		t.Errorf("resumed result exec %v (%d iterations) differs from the uninterrupted %v (%d)",
			res.Exec, res.Iterations, want.Exec, want.Iterations)
	}
	fresh, err := m.Submit(api.SubmitRequest{Instance: inst, Solver: api.SolverMaTCH, Options: opts})
	if err != nil {
		t.Fatalf("Submit fresh: %v", err)
	}
	if fresh.CacheHit || fresh.Key == info.Key {
		t.Errorf("fresh submission shares the checkpoint submission's cache entry (hit %v)", fresh.CacheHit)
	}
	again, err := m.Submit(req)
	if err != nil {
		t.Fatalf("Submit again: %v", err)
	}
	if !again.CacheHit {
		t.Error("identical checkpoint resubmission missed the cache")
	}
}

// TestShutdownPersistsQueuedJobs checks still-queued jobs survive a
// restart even without a checkpoint.
func TestShutdownPersistsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	m := New(Options{Workers: 1, CheckpointDir: dir, QueueCapacity: 4})

	blocker, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 31, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitState(t, m, blocker.ID, api.StateRunning, 10*time.Second)
	queued, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 32, 8), Solver: api.SolverGA,
		Options: api.SolverOptions{Seed: 2, Workers: 1, Generations: 20, PopulationSize: 30},
	})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, queued.ID+".json")); err != nil {
		t.Fatalf("queued job not persisted: %v", err)
	}

	m2 := New(Options{Workers: 2, CheckpointDir: dir})
	defer m2.Shutdown(context.Background())
	if _, err := m2.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	final := waitTerminal(t, m2, queued.ID, 60*time.Second)
	if final.State != api.StateDone {
		t.Fatalf("restored queued job ended %q, want done", final.State)
	}
}

// TestRestoreSkipsCorruptFiles checks Restore degrades gracefully: bad
// files are reported, good ones still run.
func TestRestoreSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jbad.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := New(Options{Workers: 1, CheckpointDir: dir})
	defer m.Shutdown(context.Background())
	restored, err := m.Restore()
	if restored != 0 {
		t.Errorf("restored %d from a corrupt-only dir", restored)
	}
	if err == nil {
		t.Error("Restore over a corrupt file reported no error")
	}
}

func waitForIteration(t *testing.T, m *Manager, id string, timeout time.Duration) {
	t.Helper()
	ch, detach, err := m.Subscribe(id)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer detach()
	deadline := time.After(timeout)
	for {
		select {
		case e, open := <-ch:
			if !open {
				t.Fatal("job ended before any iteration was observed")
			}
			if e.Kind == "iter" {
				return
			}
		case <-deadline:
			t.Fatal("no iteration event within timeout")
		}
	}
}

func validMapping(p *matchsim.Problem, mapping []int) error {
	_, err := p.Exec(mapping)
	return err
}

// waitIdle reports whether a job holds no WaitInfo state: no wait channel
// and no registered waiter.
func waitIdle(m *Manager, id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	return j.changed == nil && j.waiters == 0
}

// TestWaitInfo covers the long-poll status: it wakes on queued→running
// and running→done (every concurrent waiter at once), answers at once
// for a terminal job or a state that already differs, gives up with the
// state unchanged when ctx ends, rejects unknown ids, and leaves no wait
// channel behind in any of those cases.
func TestWaitInfo(t *testing.T) {
	m := New(Options{Workers: 1, QueueCapacity: 4})
	defer m.Shutdown(context.Background())

	blocker, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 31, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitState(t, m, blocker.ID, api.StateRunning, 10*time.Second)
	short, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 32, 8), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 2, Workers: 1, MaxIterations: 20},
	})
	if err != nil {
		t.Fatalf("Submit short: %v", err)
	}

	// ctx expiry: the blocker keeps running, so the wait times out and
	// reports the unchanged state.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	info, err := m.WaitInfo(ctx, blocker.ID, api.StateRunning)
	cancel()
	if err != nil || info.State != api.StateRunning {
		t.Fatalf("timed-out WaitInfo = %q, %v; want running, nil", info.State, err)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("WaitInfo returned after %v, before its context ended", waited)
	}
	if !waitIdle(m, blocker.ID) {
		t.Fatal("timed-out WaitInfo left its wait channel behind")
	}

	// queued→running: several waiters park on the queued short job and
	// all wake when cancelling the blocker lets it start.
	const waiters = 4
	startWaiters := func(id, from string) <-chan api.JobInfo {
		got := make(chan api.JobInfo, waiters)
		for i := 0; i < waiters; i++ {
			go func() {
				info, err := m.WaitInfo(context.Background(), id, from)
				if err != nil {
					t.Errorf("WaitInfo(%s, %s): %v", id, from, err)
				}
				got <- info
			}()
		}
		// Return once every waiter is parked (or the job moved on, which
		// sends them back at once).
		deadline := time.Now().Add(10 * time.Second)
		for {
			m.mu.Lock()
			j := m.jobs[id]
			parked, moved := j.waiters, j.state != from
			m.mu.Unlock()
			if parked == waiters || moved {
				return got
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d waiters parked on %s", parked, waiters, id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	got := startWaiters(short.ID, api.StateQueued)
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	for i := 0; i < waiters; i++ {
		if info := <-got; info.State == api.StateQueued {
			t.Fatal("WaitInfo(queued) woke with the job still queued")
		}
	}
	waitTerminal(t, m, short.ID, 10*time.Second)

	// running→done: a job that runs for a while is done when its waiters
	// wake.
	medium, err := m.Submit(api.SubmitRequest{
		Instance: instanceJSON(t, 33, 16), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 3, Workers: 1, MaxIterations: 60, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit medium: %v", err)
	}
	waitState(t, m, medium.ID, api.StateRunning, 10*time.Second)
	got = startWaiters(medium.ID, api.StateRunning)
	for i := 0; i < waiters; i++ {
		if info := <-got; info.State != api.StateDone {
			t.Fatalf("WaitInfo(running) woke in %q, want done", info.State)
		}
	}
	if !waitIdle(m, short.ID) || !waitIdle(m, medium.ID) {
		t.Fatal("state changes left a wait channel behind")
	}

	// Terminal job, or a state that already differs: answered at once,
	// even with a context that never ends.
	for _, from := range []string{api.StateDone, api.StateQueued, api.StateRunning, ""} {
		done := make(chan api.JobInfo, 1)
		go func() {
			info, _ := m.WaitInfo(context.Background(), short.ID, from)
			done <- info
		}()
		select {
		case info := <-done:
			if info.State != api.StateDone {
				t.Fatalf("WaitInfo(%q) on a done job = %q", from, info.State)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("WaitInfo(%q) on a done job blocked", from)
		}
	}
	if !waitIdle(m, short.ID) {
		t.Fatal("immediate answers allocated a wait channel")
	}

	if _, err := m.WaitInfo(context.Background(), "j-missing", api.StateQueued); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("WaitInfo(unknown) = %v, want ErrUnknownJob", err)
	}
}
