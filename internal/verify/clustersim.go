package verify

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/internal/cluster"
	"matchsim/internal/httpapi"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
)

// ClusterSimConfig tunes the multi-node partition/failover simulation of
// RunClusterSim. The scenario sequence is fixed; Seed only varies the
// problem instances, so a run is reproducible modulo wall-clock
// interleaving (run it under -race).
type ClusterSimConfig struct {
	Seed uint64
	// Workers is the cluster size (default 3; the scenarios need >= 3 so
	// a crash and a partition still leave a survivor).
	Workers int
	// Tasks is the instance size (default 12).
	Tasks int
	// StateDir is the coordinator journal directory; required, because
	// the coordinator-restart scenario re-attaches through it.
	StateDir string
	// Timeout bounds every individual wait (default 90s).
	Timeout time.Duration
}

// ClusterSimStats counts what the simulation observed — tests assert the
// interesting faults actually fired.
type ClusterSimStats struct {
	Workers             int    // cluster size
	Submitted           int    // coordinator submissions accepted
	Done                int    // jobs that delivered a validated result
	Resumed             int    // jobs completed via a checkpoint handoff
	Handoffs            uint64 // coordinator handoffs across both epochs
	CoordinatorRestarts int    // shutdown/Restore cycles performed
	Crashes             int    // workers killed mid-solve
	Partitions          int    // workers network-partitioned mid-solve
	Heals               int    // partitions healed and re-admitted by probes
	ResultsChecked      int    // results validated against the oracle
	TracesChecked       int    // span trees validated after shutdowns
	// Routed counts accepted coordinator submissions per solver name.
	Routed map[string]int
}

func (c ClusterSimConfig) withDefaults() ClusterSimConfig {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Tasks <= 0 {
		c.Tasks = 12
	}
	if c.Timeout <= 0 {
		c.Timeout = 90 * time.Second
	}
	return c
}

// simWorker is one worker matchd node: a real jobs.Manager behind the
// real HTTP surface, with a partition switch in front. A partitioned
// worker aborts every connection (the solver underneath keeps running —
// exactly what a network partition looks like from the coordinator) and
// a crashed one additionally stops listening for good.
type simWorker struct {
	m           *jobs.Manager
	ts          *httptest.Server
	inner       http.Handler
	partitioned atomic.Bool
	crashed     bool
	drained     bool
}

func (w *simWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if w.partitioned.Load() {
		panic(http.ErrAbortHandler)
	}
	w.inner.ServeHTTP(rw, r)
}

// crash severs the worker at the network layer: in-flight connections
// die and the port stops answering. The manager is left running so its
// orphaned solve keeps burning CPU, as a real crashed-then-isolated node
// would until its supervisor reaps it.
func (w *simWorker) crash() {
	w.crashed = true
	w.ts.CloseClientConnections()
	w.ts.Close()
}

// RunClusterSim drives a real coordinator over real worker daemons
// through the cluster failure drill:
//
//  1. baseline fan-out — a batch of short submissions, one per simArms
//     entry, spread across the ring, every result bit-identical to a
//     standalone daemon's;
//  2. worker crash mid-solve — the routed worker dies after the
//     coordinator captured a checkpoint; the job must finish on a
//     survivor with Resumed set and the standalone daemon's fresh bits
//     (resumes are exact), and an identical follow-up submission must be
//     a cache hit with the same bits;
//  3. coordinator restart — the coordinator shuts down mid-flight and a
//     new one re-attaches through the StateDir journal; the job keeps
//     its id and completes;
//  4. partition + heal — a partitioned worker's solve hands off to a
//     survivor and still ends with the standalone bits, the heal is
//     picked up by health probes, and new jobs route onto the healed
//     worker again.
//
// Short jobs rotate through simArms, so every solver-table entry is
// routed; the long jobs that crashes, restarts and partitions interrupt
// are plain MaTCH, the one entry that resumes from a checkpoint.
//
// Throughout: no lost jobs (every accepted submission reaches done under
// its original id), and every mapping re-validates against the
// independent problem evaluator.
func RunClusterSim(cfg ClusterSimConfig) (ClusterSimStats, error) {
	cfg = cfg.withDefaults()
	st := ClusterSimStats{Workers: cfg.Workers, Routed: map[string]int{}}
	if cfg.StateDir == "" {
		return st, fmt.Errorf("verify: clustersim needs a state dir")
	}
	if cfg.Workers < 3 {
		return st, fmt.Errorf("verify: clustersim needs >= 3 workers, got %d", cfg.Workers)
	}

	// Problem pool, with the parsed problems kept for oracle validation.
	const poolSize = 3
	problems := make([]*matchsim.Problem, poolSize)
	instances := make([][]byte, poolSize)
	for i := range problems {
		p, err := matchsim.GeneratePaper(cfg.Seed+uint64(i), cfg.Tasks)
		if err != nil {
			return st, fmt.Errorf("verify: clustersim instance %d: %w", i, err)
		}
		var buf bytes.Buffer
		if err := p.WriteInstance(&buf); err != nil {
			return st, fmt.Errorf("verify: clustersim instance %d: %w", i, err)
		}
		problems[i] = p
		instances[i] = buf.Bytes()
	}

	workers := make([]*simWorker, cfg.Workers)
	for i := range workers {
		w := &simWorker{
			m: jobs.New(jobs.Options{
				Workers: 2,
				Tracer:  telemetry.NewTracer(telemetry.TracerOptions{Node: fmt.Sprintf("worker-%d", i)}),
			}),
		}
		w.inner = httpapi.New(w.m)
		w.ts = httptest.NewServer(w)
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			if !w.crashed {
				w.ts.Close()
			}
			if !w.drained {
				ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
				_ = w.m.Shutdown(ctx)
				cancel()
			}
		}
	}()
	urls := make([]string, len(workers))
	byURL := make(map[string]*simWorker, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
		byURL[w.ts.URL] = w
	}
	ring := cluster.NewRing(urls, 0)

	// The standalone reference daemon: the same submission here yields
	// the bits every undisturbed coordinator-routed solve must match.
	ref := jobs.New(jobs.Options{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		_ = ref.Shutdown(ctx)
		cancel()
	}()

	newCoordinator := func(epoch int) (*cluster.Coordinator, error) {
		return cluster.New(cluster.Options{
			Workers:          urls,
			CacheCapacity:    64,
			StateDir:         cfg.StateDir,
			CheckpointEvery:  1,
			PollInterval:     3 * time.Millisecond,
			HealthEvery:      15 * time.Millisecond,
			FailureThreshold: 2,
			CallTimeout:      5 * time.Second,
			Tracer:           telemetry.NewTracer(telemetry.TracerOptions{Node: fmt.Sprintf("coordinator-%d", epoch)}),
		})
	}

	// Short submissions take the arms in turn.
	nextArm := 0
	rotateArm := func() *simArm {
		a := &simArms[nextArm%len(simArms)]
		nextArm++
		return a
	}
	// makeReq builds a short job of arm, or a long plain MaTCH job when
	// arm is nil: long enough (hundreds of ms) that the coordinator
	// reliably captures a mid-run checkpoint before the fault fires,
	// bounded so rescued and orphaned runs still finish on their own.
	makeReq := func(instIdx int, arm *simArm, seed uint64) api.SubmitRequest {
		req := api.SubmitRequest{Instance: instances[instIdx], Solver: api.SolverMaTCH, Options: api.SolverOptions{
			Workers: 1, SampleSize: 400,
			MaxIterations: 2500, StallC: 1 << 20, GammaStallWindow: 1 << 20,
		}}
		if arm != nil {
			req.Solver, req.Options = arm.solver, arm.opts
		}
		req.Options.Seed = seed
		return req
	}
	reqKey := func(instIdx int, req api.SubmitRequest) (string, error) {
		key, err := jobs.Key(problems[instIdx], req.Solver, req.Options, nil)
		if err != nil {
			return "", fmt.Errorf("verify: clustersim key: %w", err)
		}
		return key, nil
	}

	// ownedReq searches option seeds until the request's content address
	// lands on the wanted worker (with the given members excluded, so the
	// search matches what a coordinator with dead members would do).
	ownedReq := func(instIdx int, arm *simArm, owner string, excluded map[string]bool, from uint64) (api.SubmitRequest, error) {
		for seed := from; seed < from+500; seed++ {
			req := makeReq(instIdx, arm, seed)
			key, err := reqKey(instIdx, req)
			if err != nil {
				return api.SubmitRequest{}, err
			}
			if w, ok := ring.LookupExcluding(key, excluded); ok && w == owner {
				return req, nil
			}
		}
		return api.SubmitRequest{}, fmt.Errorf("verify: clustersim found no key owned by %s", owner)
	}

	// Every accepted coordinator job id, tagged with its coordinator
	// epoch: completed jobs are (correctly) forgotten across a
	// coordinator restart — only journalled in-flight ones survive — so
	// the final no-lost-jobs sweep re-checks the current epoch's ids.
	type ledgerEntry struct {
		id    string
		epoch int
	}
	epoch := 0
	var ledger []ledgerEntry

	waitTerminal := func(co *cluster.Coordinator, id string) (api.JobInfo, error) {
		deadline := time.Now().Add(cfg.Timeout)
		for {
			info, err := co.Info(id)
			if err != nil {
				return info, fmt.Errorf("verify: clustersim lost job %s: %w", id, err)
			}
			if api.TerminalState(info.State) {
				return info, nil
			}
			if time.Now().After(deadline) {
				return info, fmt.Errorf("verify: clustersim job %s stuck in %q on %q", id, info.State, info.Worker)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitCheckpoint := func(co *cluster.Coordinator, id string) error {
		deadline := time.Now().Add(cfg.Timeout)
		for {
			if _, ok := co.CheckpointIters(id); ok {
				return nil
			}
			if info, err := co.Info(id); err != nil {
				return err
			} else if api.TerminalState(info.State) {
				return fmt.Errorf("verify: clustersim job %s finished before a checkpoint was captured", id)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("verify: clustersim no checkpoint captured for job %s", id)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// refResult solves the same submission on the standalone daemon; its
	// cache makes repeat lookups free.
	refResult := func(req api.SubmitRequest) (api.JobResult, error) {
		info, err := ref.Submit(req)
		if err != nil {
			return api.JobResult{}, fmt.Errorf("verify: clustersim reference submit: %w", err)
		}
		deadline := time.Now().Add(cfg.Timeout)
		for {
			i, err := ref.Info(info.ID)
			if err != nil {
				return api.JobResult{}, err
			}
			if api.TerminalState(i.State) {
				if i.State != api.StateDone {
					return api.JobResult{}, fmt.Errorf("verify: clustersim reference job ended %q: %s", i.State, i.Error)
				}
				return ref.Result(info.ID)
			}
			if time.Now().After(deadline) {
				return api.JobResult{}, fmt.Errorf("verify: clustersim reference job stuck")
			}
			time.Sleep(time.Millisecond)
		}
	}

	validate := func(id string, instIdx int, solver string, res api.JobResult) error {
		if solver != api.SolverManyToOne {
			if err := CheckPermutation(res.Mapping); err != nil {
				return fmt.Errorf("job %s: %w", id, err)
			}
		}
		exec, err := problems[instIdx].Exec(res.Mapping)
		if err != nil {
			return fmt.Errorf("job %s: re-evaluating mapping: %w", id, err)
		}
		if math.Float64bits(exec) != math.Float64bits(res.Exec) {
			return fmt.Errorf("job %s: reported exec %v != evaluated %v", id, res.Exec, exec)
		}
		st.ResultsChecked++
		return nil
	}
	bitIdentical := func(a, b api.JobResult) bool {
		if math.Float64bits(a.Exec) != math.Float64bits(b.Exec) || len(a.Mapping) != len(b.Mapping) ||
			a.Iterations != b.Iterations || a.Evaluations != b.Evaluations || a.StopReason != b.StopReason {
			return false
		}
		for i := range a.Mapping {
			if a.Mapping[i] != b.Mapping[i] {
				return false
			}
		}
		return true
	}
	submit := func(co *cluster.Coordinator, req api.SubmitRequest) (api.JobInfo, error) {
		info, err := co.Submit(req)
		if err != nil {
			return info, fmt.Errorf("verify: clustersim submit: %w", err)
		}
		st.Submitted++
		st.Routed[req.Solver]++
		ledger = append(ledger, ledgerEntry{info.ID, epoch})
		return info, nil
	}
	// settle waits a job out, validates its mapping, and holds it to the
	// standalone daemon's bits — handoffs included, since resumes are
	// exact.
	settle := func(co *cluster.Coordinator, id string, instIdx int, req api.SubmitRequest) (api.JobInfo, api.JobResult, error) {
		final, err := waitTerminal(co, id)
		if err != nil {
			return final, api.JobResult{}, err
		}
		if final.State != api.StateDone {
			return final, api.JobResult{}, fmt.Errorf("verify: clustersim job %s ended %q: %s", id, final.State, final.Error)
		}
		res, err := co.Result(id)
		if err != nil {
			return final, res, fmt.Errorf("verify: clustersim result %s: %w", id, err)
		}
		if err := validate(id, instIdx, req.Solver, res); err != nil {
			return final, res, err
		}
		want, err := refResult(req)
		if err != nil {
			return final, res, err
		}
		if !bitIdentical(res, want) {
			return final, res, fmt.Errorf("verify: clustersim job %s diverged from the standalone solve (exec %v vs %v, resumed %v)", id, res.Exec, want.Exec, final.Resumed)
		}
		st.Done++
		if final.Resumed {
			st.Resumed++
		}
		return final, res, nil
	}
	checkTracer := func(tr *telemetry.Tracer, who string) error {
		if err := CheckSpanAccounting(tr); err != nil {
			return fmt.Errorf("%w (%s)", err, who)
		}
		for _, sum := range tr.Traces(0) {
			if err := CheckSpanTree(sum.TraceID, tr.Trace(sum.TraceID)); err != nil {
				return fmt.Errorf("%w (%s)", err, who)
			}
			st.TracesChecked++
		}
		return nil
	}

	co, err := newCoordinator(0)
	if err != nil {
		return st, fmt.Errorf("verify: clustersim coordinator: %w", err)
	}
	defer func() {
		if co != nil {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
			_ = co.Shutdown(ctx)
			cancel()
		}
	}()

	// ---- Scenario 1: baseline fan-out across the ring ----------------
	type pending struct {
		id      string
		instIdx int
		req     api.SubmitRequest
	}
	var batch []pending
	for k := range simArms {
		instIdx := k % poolSize
		req := makeReq(instIdx, rotateArm(), uint64(1+k/poolSize))
		info, err := submit(co, req)
		if err != nil {
			return st, err
		}
		batch = append(batch, pending{info.ID, instIdx, req})
	}
	for _, p := range batch {
		final, _, err := settle(co, p.id, p.instIdx, p.req)
		if err != nil {
			return st, err
		}
		key, err := reqKey(p.instIdx, p.req)
		if err != nil {
			return st, err
		}
		if !final.CacheHit && final.Worker != ring.Lookup(key) {
			return st, fmt.Errorf("verify: clustersim job %s ran on %q, ring owns its key at %q", p.id, final.Worker, ring.Lookup(key))
		}
	}

	// ---- Scenario 2: worker crash mid-solve --------------------------
	crashReq := makeReq(0, nil, 11)
	info, err := submit(co, crashReq)
	if err != nil {
		return st, err
	}
	if err := waitCheckpoint(co, info.ID); err != nil {
		return st, err
	}
	running, err := co.Info(info.ID)
	if err != nil {
		return st, err
	}
	victimURL := running.Worker
	victim := byURL[victimURL]
	if victim == nil {
		return st, fmt.Errorf("verify: clustersim no worker behind %q", victimURL)
	}
	victim.crash()
	st.Crashes++
	final, rescued, err := settle(co, info.ID, 0, crashReq)
	if err != nil {
		return st, err
	}
	if !final.Resumed {
		return st, fmt.Errorf("verify: clustersim crash-rescued job %s not marked Resumed", info.ID)
	}
	if final.Worker == victimURL {
		return st, fmt.Errorf("verify: clustersim rescued job %s still attributed to the dead worker", info.ID)
	}
	// The rescued result is the fresh solve's, so it feeds the cache: an
	// identical follow-up is a hit carrying the same bits.
	dup, err := submit(co, crashReq)
	if err != nil {
		return st, err
	}
	if !dup.CacheHit {
		return st, fmt.Errorf("verify: clustersim identical submission after a rescue missed the cache")
	}
	_, dupRes, err := settle(co, dup.ID, 0, crashReq)
	if err != nil {
		return st, err
	}
	if !bitIdentical(dupRes, rescued) {
		return st, fmt.Errorf("verify: clustersim post-rescue cache hit differs from the rescued result")
	}

	excluded := map[string]bool{victimURL: true}

	// ---- Scenario 3: coordinator restart mid-flight ------------------
	// Any surviving owner will do; just avoid the dead worker.
	var restartReq api.SubmitRequest
	for _, w := range workers {
		if !w.crashed {
			if restartReq, err = ownedReq(1, nil, w.ts.URL, excluded, 20); err != nil {
				return st, err
			}
			break
		}
	}
	info, err = submit(co, restartReq)
	if err != nil {
		return st, err
	}
	if err := waitCheckpoint(co, info.ID); err != nil {
		return st, err
	}
	preHandoffs := co.Status().Handoffs
	{
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		err := co.Shutdown(ctx)
		cancel()
		if err != nil {
			return st, fmt.Errorf("verify: clustersim coordinator shutdown: %w", err)
		}
	}
	if err := checkTracer(co.Tracer(), "coordinator epoch 0"); err != nil {
		return st, err
	}
	st.Handoffs += preHandoffs
	st.CoordinatorRestarts++
	epoch++
	co, err = newCoordinator(1)
	if err != nil {
		return st, fmt.Errorf("verify: clustersim coordinator restart: %w", err)
	}
	restored, err := co.Restore()
	if err != nil {
		return st, fmt.Errorf("verify: clustersim restore: %w", err)
	}
	if restored < 1 {
		return st, fmt.Errorf("verify: clustersim restore re-attached %d flights, want >= 1", restored)
	}
	// No lost jobs: the in-flight job survives the restart under its
	// original id (the worker kept solving through the coordinator's
	// downtime, so the result is an undisturbed deterministic solve).
	if _, _, err := settle(co, info.ID, 1, restartReq); err != nil {
		return st, err
	}

	// ---- Scenario 4: partition mid-solve, then heal ------------------
	var part *simWorker
	for _, w := range workers {
		if !w.crashed {
			part = w
			break
		}
	}
	partReq, err := ownedReq(2, nil, part.ts.URL, excluded, 40)
	if err != nil {
		return st, err
	}
	info, err = submit(co, partReq)
	if err != nil {
		return st, err
	}
	if err := waitCheckpoint(co, info.ID); err != nil {
		return st, err
	}
	part.partitioned.Store(true)
	st.Partitions++
	final, _, err = settle(co, info.ID, 2, partReq)
	if err != nil {
		return st, err
	}
	if !final.Resumed {
		return st, fmt.Errorf("verify: clustersim partition-rescued job %s not marked Resumed", info.ID)
	}
	if final.Worker == part.ts.URL {
		return st, fmt.Errorf("verify: clustersim rescued job %s still attributed to the partitioned worker", info.ID)
	}

	part.partitioned.Store(false)
	healDeadline := time.Now().Add(cfg.Timeout)
	for {
		up := false
		for _, w := range co.Status().Workers {
			if w.URL == part.ts.URL && w.Up {
				up = true
			}
		}
		if up {
			break
		}
		if time.Now().After(healDeadline) {
			return st, fmt.Errorf("verify: clustersim healed worker %s never re-admitted", part.ts.URL)
		}
		time.Sleep(time.Millisecond)
	}
	st.Heals++
	healReq, err := ownedReq(2, rotateArm(), part.ts.URL, excluded, 60)
	if err != nil {
		return st, err
	}
	info, err = submit(co, healReq)
	if err != nil {
		return st, err
	}
	final, _, err = settle(co, info.ID, 2, healReq)
	if err != nil {
		return st, err
	}
	if !final.CacheHit && final.Worker != part.ts.URL {
		return st, fmt.Errorf("verify: clustersim post-heal job ran on %q, want the healed worker %q", final.Worker, part.ts.URL)
	}

	// ---- Final accounting --------------------------------------------
	for _, e := range ledger {
		if e.epoch != epoch {
			continue
		}
		final, err := waitTerminal(co, e.id)
		if err != nil {
			return st, err
		}
		if final.State != api.StateDone {
			return st, fmt.Errorf("verify: clustersim job %s unaccounted for: state %q", e.id, final.State)
		}
	}
	st.Handoffs += co.Status().Handoffs
	{
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		err := co.Shutdown(ctx)
		cancel()
		if err != nil {
			return st, fmt.Errorf("verify: clustersim final shutdown: %w", err)
		}
	}
	if err := checkTracer(co.Tracer(), "coordinator epoch 1"); err != nil {
		return st, err
	}
	co = nil
	for i, w := range workers {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		err := w.m.Shutdown(ctx)
		cancel()
		w.drained = true
		if err != nil {
			return st, fmt.Errorf("verify: clustersim worker %d shutdown: %w", i, err)
		}
		if err := checkTracer(w.m.Tracer(), fmt.Sprintf("worker-%d", i)); err != nil {
			return st, err
		}
	}
	return st, nil
}
