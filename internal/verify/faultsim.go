package verify

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/internal/jobs"
	"matchsim/internal/memcheck"
	"matchsim/internal/telemetry"
	"matchsim/internal/xrand"
)

// FaultSimConfig tunes the deterministic fault-injection simulation of
// RunFaultSim. The op schedule — which submissions, cancels, subscriber
// faults and restarts happen, and in which order — is a pure function of
// Seed; only wall-clock interleaving varies between runs, and the
// invariants must hold under any interleaving (run it under -race).
type FaultSimConfig struct {
	Seed uint64
	// Ops is the number of scheduled operations per manager epoch
	// (default 40).
	Ops int
	// Restarts is the number of SIGTERM-style shutdown/Restore cycles
	// (default 1). Restarts > 0 requires CheckpointDir.
	Restarts int
	// QueueCapacity is deliberately tiny (default 2) so submit bursts
	// inject queue-full rejections.
	QueueCapacity int
	// CacheCapacity is deliberately tiny (default 2) so completions
	// evict cache entries while readers race them.
	CacheCapacity int
	// Instances is the size of the problem pool (default 3; smaller than
	// the op count so key collisions — and cache hits — occur).
	Instances int
	// Tasks is the instance size (default 10: big enough to be a real
	// solve, small enough that a job finishes in milliseconds).
	Tasks int
	// CheckpointDir is where shutdowns persist interrupted jobs.
	CheckpointDir string
	// Timeout bounds every individual wait (default 30s).
	Timeout time.Duration
}

// faultSimHeapPerJob bounds the live heap, after GC, that the final
// epoch's manager may have grown by once its jobs finish, per job it
// holds. The check is skipped under the race detector.
const faultSimHeapPerJob = 64 << 10

// FaultSimStats counts what the simulation observed — tests assert the
// interesting faults actually fired.
type FaultSimStats struct {
	Submitted      int // Submit calls
	Accepted       int // submissions the manager accepted
	QueueFull      int // submissions rejected with ErrQueueFull
	CacheHits      int // accepted submissions served from the result cache
	Cancels        int // user cancels issued
	StalledSubs    int // subscribers that never read until drained at the end
	Disconnects    int // subscribers that detached immediately
	Restarts       int // shutdown/Restore cycles performed
	Restored       int // jobs re-enqueued by Restore
	ResumedIterOK  int // restored runs observed solving again under the original id
	Done           int // jobs that delivered a result
	Cancelled      int // jobs that ended cancelled (user or final drain)
	StreamsChecked int // subscriber event streams validated
	ResultsChecked int // results validated against the oracle and cache
	TracesChecked  int // span trees validated after each epoch's shutdown
	// HeapPerJob is the final epoch's heap growth after GC per job its
	// manager held once every job finished (0 under the race detector).
	HeapPerJob int64
}

func (c FaultSimConfig) withDefaults() FaultSimConfig {
	if c.Ops <= 0 {
		c.Ops = 40
	}
	if c.Restarts < 0 {
		c.Restarts = 0
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 2
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 2
	}
	if c.Instances <= 0 {
		c.Instances = 3
	}
	if c.Tasks <= 0 {
		c.Tasks = 10
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// simInstance is one pooled problem: the submission payload plus the
// parsed problem for validating result mappings independently.
type simInstance struct {
	json    []byte
	problem *matchsim.Problem
}

// jobRec is the simulator's own ledger entry for an accepted job — the
// ground truth "no lost jobs" is checked against.
type jobRec struct {
	instIdx       int
	key           string
	long          bool
	userCancelled bool
	closed        bool // accounted for: delivered or user-cancelled
}

// stalledSub is a subscriber that deliberately never reads.
type stalledSub struct {
	id     string
	ch     <-chan api.Event
	cancel func()
}

// RunFaultSim drives a real jobs.Manager through a seeded schedule of
// submissions (with deliberate duplicate keys), bursts against a tiny
// queue, user cancels, stalled and immediately-disconnecting SSE
// subscribers, and SIGTERM-style shutdown/Restore cycles taken while a
// checkpointable job is mid-run. Throughout, it asserts:
//
//   - no lost jobs: every accepted submission is either delivered (done),
//     user-cancelled, or persisted at shutdown and restored — under its
//     original id — by the next epoch's manager;
//   - no stale cache hits: every result delivered for a cache key is
//     bit-identical (mapping and Exec) to the first result computed for
//     that key, and every mapping re-validates against the independent
//     problem evaluator;
//   - resumable state: a job interrupted mid-run resumes past its
//     checkpointed iteration after Restore;
//   - well-formed streams: every subscriber channel closes, events are in
//     order, and nothing follows an end event;
//   - bounded memory: once the final epoch's jobs have all finished, the
//     live heap has grown by at most 64 KB per job the manager holds.
func RunFaultSim(cfg FaultSimConfig) (FaultSimStats, error) {
	cfg = cfg.withDefaults()
	var st FaultSimStats
	if cfg.Restarts > 0 && cfg.CheckpointDir == "" {
		return st, fmt.Errorf("verify: faultsim restarts need a checkpoint dir")
	}
	rng := xrand.New(cfg.Seed)

	instances := make([]simInstance, cfg.Instances)
	for i := range instances {
		p, err := matchsim.GeneratePaper(cfg.Seed+uint64(i), cfg.Tasks)
		if err != nil {
			return st, fmt.Errorf("verify: faultsim instance %d: %w", i, err)
		}
		var buf bytes.Buffer
		if err := p.WriteInstance(&buf); err != nil {
			return st, fmt.Errorf("verify: faultsim instance %d: %w", i, err)
		}
		instances[i] = simInstance{json: buf.Bytes(), problem: p}
	}
	shortOpts := func(instIdx int) api.SolverOptions {
		return api.SolverOptions{Seed: 100 + uint64(instIdx), Workers: 1, MaxIterations: 30}
	}
	longOpts := api.SolverOptions{
		Seed: 7, Workers: 1,
		MaxIterations: 1 << 20, StallC: 1 << 20, GammaStallWindow: 1 << 20,
	}

	var (
		mu       sync.Mutex
		recs     = map[string]*jobRec{}
		ids      []string // acceptance order, for deterministic random picks
		expected = map[string]api.JobResult{}
	)

	// validateResult checks a delivered result against the independent
	// evaluator and against the first result seen for its cache key —
	// resumed jobs included, since a resume is exact.
	validateResult := func(id string, rec *jobRec, res api.JobResult) error {
		if err := CheckPermutation(res.Mapping); err != nil {
			return fmt.Errorf("job %s: %w", id, err)
		}
		exec, err := instances[rec.instIdx].problem.Exec(res.Mapping)
		if err != nil {
			return fmt.Errorf("job %s: re-evaluating mapping: %w", id, err)
		}
		if math.Float64bits(exec) != math.Float64bits(res.Exec) {
			return fmt.Errorf("job %s: reported exec %v != evaluated %v", id, res.Exec, exec)
		}
		mu.Lock()
		defer mu.Unlock()
		if want, ok := expected[rec.key]; ok {
			if len(want.Mapping) != len(res.Mapping) {
				return fmt.Errorf("job %s: stale result for key %s: mapping length changed", id, rec.key)
			}
			for t := range want.Mapping {
				if want.Mapping[t] != res.Mapping[t] {
					return fmt.Errorf("job %s: stale result for key %s: mapping diverged at task %d (%d != %d)",
						id, rec.key, t, res.Mapping[t], want.Mapping[t])
				}
			}
			if math.Float64bits(want.Exec) != math.Float64bits(res.Exec) {
				return fmt.Errorf("job %s: stale result for key %s: exec %v != %v", id, rec.key, res.Exec, want.Exec)
			}
		} else {
			expected[rec.key] = res
		}
		st.ResultsChecked++
		return nil
	}

	submit := func(m *jobs.Manager, instIdx int, long bool) (string, error) {
		req := api.SubmitRequest{Instance: instances[instIdx].json, Solver: api.SolverMaTCH}
		if long {
			req.Options = longOpts
		} else {
			req.Options = shortOpts(instIdx)
		}
		st.Submitted++
		info, err := m.Submit(req)
		if errors.Is(err, jobs.ErrQueueFull) {
			st.QueueFull++
			return "", nil
		}
		if err != nil {
			return "", fmt.Errorf("verify: faultsim submit: %w", err)
		}
		st.Accepted++
		if info.CacheHit {
			st.CacheHits++
		}
		mu.Lock()
		if recs[info.ID] == nil {
			recs[info.ID] = &jobRec{instIdx: instIdx, key: info.Key, long: long}
			ids = append(ids, info.ID)
		}
		mu.Unlock()
		return info.ID, nil
	}

	waitTerminal := func(m *jobs.Manager, id string) (api.JobInfo, error) {
		deadline := time.Now().Add(cfg.Timeout)
		for {
			info, err := m.Info(id)
			if err != nil {
				return info, fmt.Errorf("verify: faultsim lost job %s: %w", id, err)
			}
			if api.TerminalState(info.State) {
				return info, nil
			}
			if time.Now().After(deadline) {
				return info, fmt.Errorf("verify: faultsim job %s stuck in %q", id, info.State)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// pickOpen deterministically picks a not-yet-accounted job id.
	pickOpen := func(longOK bool) (string, *jobRec) {
		mu.Lock()
		defer mu.Unlock()
		if len(ids) == 0 {
			return "", nil
		}
		start := rng.Intn(len(ids))
		for off := 0; off < len(ids); off++ {
			id := ids[(start+off)%len(ids)]
			if r := recs[id]; !r.closed && (longOK || !r.long) {
				return id, r
			}
		}
		return "", nil
	}

	validateStream := func(events []api.Event) error {
		prevIter := -1
		for i, e := range events {
			switch e.Kind {
			case api.KindStart:
				prevIter = -1
			case api.KindIteration:
				if e.Iter < 0 {
					return fmt.Errorf("verify: faultsim stream: negative iteration %d", e.Iter)
				}
				if e.Iter < prevIter {
					return fmt.Errorf("verify: faultsim stream: iteration went backwards (%d after %d)", e.Iter, prevIter)
				}
				prevIter = e.Iter
			case api.KindEnd:
				if i != len(events)-1 {
					return fmt.Errorf("verify: faultsim stream: %d event(s) after end", len(events)-1-i)
				}
			default:
				return fmt.Errorf("verify: faultsim stream: unknown event kind %q", e.Kind)
			}
		}
		return nil
	}

	drainSubs := func(subs []stalledSub) error {
		for _, s := range subs {
			s.cancel() // guarantees the channel closes even for still-queued jobs
			var events []api.Event
			for e := range s.ch {
				events = append(events, e)
			}
			if err := validateStream(events); err != nil {
				return fmt.Errorf("%w (job %s)", err, s.id)
			}
			st.StreamsChecked++
		}
		return nil
	}

	// waitIter reads a job's stream until its first iteration event,
	// proving the solver is actively running, and requires that event to
	// be at or past minIter: a resumed run continues the iteration count
	// of its checkpoint.
	waitIter := func(m *jobs.Manager, id string, minIter int) (int, error) {
		ch, cancel, err := m.Subscribe(id)
		if err != nil {
			return 0, fmt.Errorf("verify: faultsim subscribe %s: %w", id, err)
		}
		defer cancel()
		deadline := time.After(cfg.Timeout)
		for {
			select {
			case e, ok := <-ch:
				if !ok {
					return 0, fmt.Errorf("verify: faultsim job %s stream closed before iteration %d", id, minIter)
				}
				if e.Kind != api.KindIteration {
					continue
				}
				if e.Iter < minIter {
					return 0, fmt.Errorf("verify: faultsim job %s first iteration event %d, want >= %d", id, e.Iter, minIter)
				}
				return e.Iter, nil
			case <-deadline:
				return 0, fmt.Errorf("verify: faultsim job %s produced no iteration >= %d in %v", id, minIter, cfg.Timeout)
			}
		}
	}

	mgrOpts := func() jobs.Options {
		return jobs.Options{
			QueueCapacity: cfg.QueueCapacity,
			Workers:       2, // one for long blockers, one to drain shorts
			CacheCapacity: cfg.CacheCapacity,
			CheckpointDir: cfg.CheckpointDir,
			// Tracing on: every epoch must balance its span ledger, and
			// every retained trace must be structurally sound, under the
			// same fault schedule that exercises everything else.
			Tracer: telemetry.NewTracer(telemetry.TracerOptions{Node: "faultsim"}),
		}
	}

	epochs := cfg.Restarts + 1
	var m *jobs.Manager
	defer func() {
		if m != nil {
			ctx, cancelCtx := context.WithTimeout(context.Background(), cfg.Timeout)
			defer cancelCtx()
			_ = m.Shutdown(ctx)
		}
	}()

	var longID string // the job deliberately interrupted mid-run by shutdown
	var longIters int // iterations its shutdown checkpoint banked

	var heapBase uint64 // live heap at the start of the final epoch
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch == epochs-1 && !memcheck.RaceEnabled {
			heapBase = memcheck.HeapAfterGC()
		}
		m = jobs.New(mgrOpts())
		if epoch > 0 {
			restored, err := m.Restore()
			if err != nil {
				return st, fmt.Errorf("verify: faultsim restore: %w", err)
			}
			st.Restored += restored
			// Every job left open by the previous epoch must exist in this
			// manager under its original id — that is "no lost jobs".
			mu.Lock()
			var open []string
			for _, id := range ids {
				if !recs[id].closed {
					open = append(open, id)
				}
			}
			mu.Unlock()
			for _, id := range open {
				if _, err := m.Info(id); err != nil {
					return st, fmt.Errorf("verify: faultsim job %s lost across restart: %w", id, err)
				}
			}
			// The interrupted long job must come back marked resumed and
			// actually solve again under its original id.
			if longID != "" {
				info, err := m.Info(longID)
				if err != nil {
					return st, fmt.Errorf("verify: faultsim interrupted job %s not restored: %w", longID, err)
				}
				if !info.Resumed {
					return st, fmt.Errorf("verify: faultsim restored job %s not marked resumed", longID)
				}
				// It continues past its checkpoint.
				if _, err := waitIter(m, longID, longIters+1); err != nil {
					return st, err
				}
				st.ResumedIterOK++
				if _, err := m.Cancel(longID); err != nil {
					return st, fmt.Errorf("verify: faultsim cancelling resumed job: %w", err)
				}
				mu.Lock()
				recs[longID].userCancelled = true
				mu.Unlock()
				st.Cancels++
				longID = ""
			}
		}

		// Background readers: hammer Info/Result/Stats while the worker
		// pool completes and evicts — cache eviction mid-read, under -race.
		readerCtx, stopReader := context.WithCancel(context.Background())
		var readerWG sync.WaitGroup
		readerWG.Add(1)
		go func(m *jobs.Manager) {
			defer readerWG.Done()
			r := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
			for readerCtx.Err() == nil {
				mu.Lock()
				var id string
				if len(ids) > 0 {
					id = ids[r.Intn(len(ids))]
				}
				mu.Unlock()
				if id != "" {
					_, _ = m.Info(id)
					_, _ = m.Result(id)
				}
				_ = m.Stats()
				time.Sleep(200 * time.Microsecond)
			}
		}(m)

		var subs []stalledSub
		epochErr := func() error {
			for op := 0; op < cfg.Ops; op++ {
				switch roll := rng.Intn(100); {
				case roll < 40: // plain submit, pool reuse forces key collisions
					if _, err := submit(m, rng.Intn(cfg.Instances), false); err != nil {
						return err
					}
				case roll < 50: // burst against the tiny queue behind long blockers
					var blockers []string
					for b := 0; b < 2; b++ {
						id, err := submit(m, rng.Intn(cfg.Instances), true)
						if err != nil {
							return err
						}
						if id != "" {
							blockers = append(blockers, id)
						}
					}
					for i := 0; i < 2*cfg.QueueCapacity+4; i++ {
						if _, err := submit(m, rng.Intn(cfg.Instances), false); err != nil {
							return err
						}
					}
					for _, id := range blockers {
						if _, err := m.Cancel(id); err != nil {
							return fmt.Errorf("verify: faultsim cancelling blocker: %w", err)
						}
						mu.Lock()
						recs[id].userCancelled = true
						mu.Unlock()
						st.Cancels++
					}
				case roll < 60: // user cancel
					if id, rec := pickOpen(false); id != "" {
						if _, err := m.Cancel(id); err != nil {
							return fmt.Errorf("verify: faultsim cancel %s: %w", id, err)
						}
						mu.Lock()
						rec.userCancelled = true
						mu.Unlock()
						st.Cancels++
					}
				case roll < 70: // stalled subscriber: never reads until drained
					if id, _ := pickOpen(true); id != "" {
						ch, cancel, err := m.Subscribe(id)
						if err != nil {
							return fmt.Errorf("verify: faultsim subscribe %s: %w", id, err)
						}
						subs = append(subs, stalledSub{id: id, ch: ch, cancel: cancel})
						st.StalledSubs++
					}
				case roll < 80: // subscriber that disconnects immediately
					if id, _ := pickOpen(true); id != "" {
						ch, cancel, err := m.Subscribe(id)
						if err != nil {
							return fmt.Errorf("verify: faultsim subscribe %s: %w", id, err)
						}
						cancel()
						var events []api.Event
						for e := range ch {
							events = append(events, e)
						}
						if err := validateStream(events); err != nil {
							return fmt.Errorf("%w (job %s)", err, id)
						}
						st.Disconnects++
						st.StreamsChecked++
					}
				default: // settle: wait a job out and validate its result
					id, rec := pickOpen(false)
					if id == "" {
						continue
					}
					info, err := waitTerminal(m, id)
					if err != nil {
						return err
					}
					if info.State == api.StateFailed {
						return fmt.Errorf("verify: faultsim job %s failed: %s", id, info.Error)
					}
					if info.State == api.StateDone {
						res, err := m.Result(id)
						if err != nil {
							return fmt.Errorf("verify: faultsim result %s: %w", id, err)
						}
						if err := validateResult(id, rec, res); err != nil {
							return err
						}
					}
				}
			}

			if epoch < epochs-1 {
				// Put a checkpointable job mid-run, then pull the plug:
				// SIGTERM during an active solve.
				for {
					id, err := submit(m, 0, true)
					if err != nil {
						return err
					}
					if id != "" {
						longID = id
						break
					}
					time.Sleep(time.Millisecond) // queue full: let it drain
				}
				if _, err := waitIter(m, longID, 1); err != nil {
					return err
				}
			}
			return nil
		}()
		stopReader()
		readerWG.Wait()
		if epochErr != nil {
			return st, epochErr
		}

		if epoch == epochs-1 {
			// Final drain: cancel whatever still runs, wait everything out.
			for {
				id, rec := pickOpen(true)
				if id == "" {
					break
				}
				info, err := m.Info(id)
				if err != nil {
					return st, fmt.Errorf("verify: faultsim lost job %s: %w", id, err)
				}
				if !api.TerminalState(info.State) && rec.long && !rec.userCancelled {
					if _, err := m.Cancel(id); err != nil {
						return st, fmt.Errorf("verify: faultsim final cancel %s: %w", id, err)
					}
					mu.Lock()
					rec.userCancelled = true
					mu.Unlock()
					st.Cancels++
				}
				info, err = waitTerminal(m, id)
				if err != nil {
					return st, err
				}
				switch info.State {
				case api.StateFailed:
					return st, fmt.Errorf("verify: faultsim job %s failed: %s", id, info.Error)
				case api.StateDone:
					res, err := m.Result(id)
					if err != nil {
						return st, fmt.Errorf("verify: faultsim result %s: %w", id, err)
					}
					if err := validateResult(id, rec, res); err != nil {
						return st, err
					}
					st.Done++
				case api.StateCancelled:
					st.Cancelled++
				}
				mu.Lock()
				rec.closed = true
				mu.Unlock()
			}

			// Deterministic cache-hit probe: with the manager quiescent,
			// an immediate duplicate of a completed submission must be
			// served from the cache and must match the original bits.
			probe, err := submit(m, 0, false)
			if err != nil {
				return st, err
			}
			if probe != "" {
				if _, err := waitTerminal(m, probe); err != nil {
					return st, err
				}
				res, err := m.Result(probe)
				if err != nil {
					return st, fmt.Errorf("verify: faultsim probe result: %w", err)
				}
				mu.Lock()
				rec := recs[probe]
				rec.closed = true
				mu.Unlock()
				if err := validateResult(probe, rec, res); err != nil {
					return st, err
				}
				st.Done++
				dup, err := submit(m, 0, false)
				if err != nil {
					return st, err
				}
				info, err := m.Info(dup)
				if err != nil {
					return st, fmt.Errorf("verify: faultsim probe duplicate: %w", err)
				}
				if !info.CacheHit {
					return st, fmt.Errorf("verify: faultsim duplicate of quiescent key was not a cache hit")
				}
				res2, err := m.Result(dup)
				if err != nil {
					return st, fmt.Errorf("verify: faultsim probe duplicate result: %w", err)
				}
				mu.Lock()
				recs[dup].closed = true
				mu.Unlock()
				if err := validateResult(dup, recs[dup], res2); err != nil {
					return st, err
				}
				st.Done++
			}
		}

		ctx, cancelCtx := context.WithTimeout(context.Background(), cfg.Timeout)
		err := m.Shutdown(ctx)
		cancelCtx()
		if err != nil {
			return st, fmt.Errorf("verify: faultsim shutdown: %w", err)
		}
		if longID != "" {
			doc, err := m.Checkpoint(longID)
			if err != nil {
				return st, fmt.Errorf("verify: faultsim interrupted job %s has no checkpoint: %w", longID, err)
			}
			longIters = doc.Iterations
		}
		if err := drainSubs(subs); err != nil {
			return st, err
		}
		subs = nil // their buffered events were the sim's, not the manager's

		if epoch == epochs-1 && !memcheck.RaceEnabled {
			// Every job has finished and the manager has stopped: what
			// it still holds is its finished jobs' info, results and
			// event histories, its result cache and its trace ring.
			held := 0
			for _, n := range m.Stats().JobsByState {
				held += n
			}
			if held > 0 {
				st.HeapPerJob = (int64(memcheck.HeapAfterGC()) - int64(heapBase)) / int64(held)
				if st.HeapPerJob > faultSimHeapPerJob {
					return st, fmt.Errorf("verify: faultsim heap grew %d bytes per finished job, want at most %d",
						st.HeapPerJob, faultSimHeapPerJob)
				}
			}
		}

		// The drained manager must have ended every span it started —
		// including the interrupted ones Shutdown closes as part of the
		// checkpoint sweep — and every retained trace must hold its
		// structural invariants.
		tr := m.Tracer()
		if err := CheckSpanAccounting(tr); err != nil {
			return st, fmt.Errorf("%w (epoch %d)", err, epoch)
		}
		for _, sum := range tr.Traces(0) {
			if err := CheckSpanTree(sum.TraceID, tr.Trace(sum.TraceID)); err != nil {
				return st, fmt.Errorf("%w (epoch %d)", err, epoch)
			}
			st.TracesChecked++
		}

		// Post-shutdown ledger audit: every accepted job must be delivered,
		// user-cancelled, or eligible for restore — nothing else.
		mu.Lock()
		open := make([]string, 0)
		for _, id := range ids {
			if !recs[id].closed {
				open = append(open, id)
			}
		}
		mu.Unlock()
		for _, id := range open {
			info, err := m.Info(id)
			if err != nil {
				return st, fmt.Errorf("verify: faultsim job %s vanished: %w", id, err)
			}
			mu.Lock()
			rec := recs[id]
			mu.Unlock()
			switch info.State {
			case api.StateDone:
				res, rerr := m.Result(id)
				if rerr != nil {
					return st, fmt.Errorf("verify: faultsim result %s: %w", id, rerr)
				}
				if err := validateResult(id, rec, res); err != nil {
					return st, err
				}
				mu.Lock()
				rec.closed = true
				mu.Unlock()
				st.Done++
			case api.StateFailed:
				return st, fmt.Errorf("verify: faultsim job %s failed: %s", id, info.Error)
			case api.StateCancelled:
				if rec.userCancelled {
					mu.Lock()
					rec.closed = true
					mu.Unlock()
					st.Cancelled++
				}
				// else: shutdown-interrupted — must reappear after Restore.
			case api.StateQueued:
				// Still queued at shutdown — must reappear after Restore.
			default:
				return st, fmt.Errorf("verify: faultsim job %s in state %q after shutdown", id, info.State)
			}
		}
		if epoch == epochs-1 {
			mu.Lock()
			for _, id := range ids {
				if !recs[id].closed {
					mu.Unlock()
					return st, fmt.Errorf("verify: faultsim job %s unaccounted for at end of run", id)
				}
			}
			mu.Unlock()
			m = nil // deferred shutdown not needed; already drained
		} else {
			st.Restarts++
		}
	}
	return st, nil
}
