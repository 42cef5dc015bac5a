package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/client"
)

// opTimeout bounds one job from submission to result, so a wedged daemon
// fails the run instead of hanging it.
const opTimeout = 60 * time.Second

// daemon is one running matchd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

// startDaemon launches matchd on a free loopback port and waits for its
// readiness line. The daemon's log output is drained and discarded.
func startDaemon(bin, name string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			if url, ok := strings.CutPrefix(sc.Text(), "matchd listening on "); ok && !announced {
				announced = true
				ready <- strings.TrimSpace(url)
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // after an over-long line
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.url = <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before it was ready", name)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s not ready after 30s", name)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within 15 s. It returns once the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// topology is the set of daemons one service workload runs against:
// the front door the benchmark submits to, and the daemons that solve.
// A standalone matchd is both.
type topology struct {
	daemons     []*daemon
	front       *client.Client
	coordinator bool
	solvers     []*client.Client
	solverURLs  []string
}

func startTopology(bin, kind string, hc *http.Client) (*topology, error) {
	t := &topology{}
	add := func(name string, args ...string) (*daemon, error) {
		d, err := startDaemon(bin, name, args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.daemons = append(t.daemons, d)
		return d, nil
	}
	if kind == kindServe {
		d, err := add("matchd")
		if err != nil {
			return nil, err
		}
		t.front = client.New(d.url).WithHTTPClient(hc)
		t.solvers = []*client.Client{t.front}
		t.solverURLs = []string{d.url}
		return t, nil
	}
	for _, name := range []string{"worker-1", "worker-2"} {
		d, err := add(name, "-workers", "1")
		if err != nil {
			return nil, err
		}
		t.solvers = append(t.solvers, client.New(d.url).WithHTTPClient(hc))
		t.solverURLs = append(t.solverURLs, d.url)
	}
	co, err := add("coordinator", "-coordinator", "-workers="+strings.Join(t.solverURLs, ","))
	if err != nil {
		return nil, err
	}
	t.front = client.New(co.url).WithHTTPClient(hc)
	t.coordinator = true
	return t, nil
}

// stop stops the daemons in reverse start order.
func (t *topology) stop() {
	for i := len(t.daemons) - 1; i >= 0; i-- {
		t.daemons[i].stop()
	}
	t.daemons = nil
}

// peakRSSKB sums the daemons' peak resident sets.
func (t *topology) peakRSSKB() (int64, error) {
	var total int64
	for _, d := range t.daemons {
		kb, err := peakRSSKB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total, nil
}

// scrape reads /metrics from the front door and, summed, from the
// solving daemons.
func (t *topology) scrape(ctx context.Context) (front, solvers scrape, err error) {
	text, err := t.front.Metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	front = parseScrape(text)
	solvers = make(scrape)
	for _, c := range t.solvers {
		text, err := c.Metrics(ctx)
		if err != nil {
			return nil, nil, err
		}
		solvers.add(parseScrape(text))
	}
	return front, solvers, nil
}

// submitRequest is the job for one input: MaTCH, one sampling worker,
// iterations capped at maxIterations.
func submitRequest(in input, maxIterations int) api.SubmitRequest {
	return api.SubmitRequest{Instance: in.Doc, Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: in.Seed, Workers: 1, MaxIterations: maxIterations}}
}

// waitJob polls a job until it reaches a terminal state, counting the
// requests it makes: first after phase, then every poll. Clients that
// poll on a fixed cadence sit at independent phases to the daemon's
// completions; spreading the jobs' phases keeps measured latency from
// snapping to multiples of the poll interval.
func waitJob(ctx context.Context, c *client.Client, info api.JobInfo, poll, phase time.Duration, requests *int) (api.JobInfo, error) {
	timer := time.NewTimer(phase)
	defer timer.Stop()
	for !api.TerminalState(info.State) {
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-timer.C:
		}
		timer.Reset(poll)
		next, err := c.Info(ctx, info.ID)
		*requests++
		if err != nil {
			return info, fmt.Errorf("poll: %w", err)
		}
		info = next
	}
	return info, nil
}

// runOpenLoop issues operation i at start+at[i] whatever the earlier
// operations are doing: do runs on its own goroutine and fills the
// record's outcome. Each record's Sched is when it was due and Sent when
// the generator actually got to it, so a generator that stalls (wait
// returning late) shows up both as lag and in every late operation's
// latency. It returns once every operation has finished.
func runOpenLoop(start time.Time, at []time.Duration, wait func(time.Time), do func(i int, op *opRecord)) []opRecord {
	ops := make([]opRecord, len(at))
	var wg sync.WaitGroup
	for i := range at {
		due := start.Add(at[i])
		wait(due)
		ops[i].Sched, ops[i].Sent = due, time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i, &ops[i])
		}(i)
	}
	wg.Wait()
	return ops
}

// runClosedLoop runs count operations on callers back-to-back callers:
// each caller issues its next operation as soon as its previous one has
// finished, until count have been issued or limit has passed. Operation k
// is the k-th issued; the result holds them in that order.
func runClosedLoop(callers, count int, limit time.Duration, do func(k int, op *opRecord)) []opRecord {
	deadline := time.Now().Add(limit)
	var (
		mu  sync.Mutex
		ops []*opRecord
		wg  sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := new(opRecord)
				mu.Lock()
				k := len(ops)
				if k == count {
					mu.Unlock()
					return
				}
				ops = append(ops, op)
				mu.Unlock()
				do(k, op)
			}
		}()
	}
	wg.Wait()
	out := make([]opRecord, len(ops))
	for i, op := range ops {
		out[i] = *op
	}
	return out
}

// serviceOp submits one job, polls it to completion and fetches its
// result. A traced job carries a traceparent on its submission only, so
// the daemon's spans for it join the benchmark's trace while its polls
// stay untraced.
func serviceOp(ctx context.Context, c *client.Client, req api.SubmitRequest, poll, phase time.Duration, op *opRecord) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	sctx := ctx
	if op.Traced {
		op.TraceID, op.SubmitSpan = newTraceID(), newSpanID()
		sctx = client.ContextWithTraceparent(ctx, traceparent(op.TraceID, op.SubmitSpan))
	}
	info, err := c.Submit(sctx, req)
	op.Submitted = time.Now()
	op.Requests++
	if err != nil {
		op.Failed = "submit: " + err.Error()
		return
	}
	info, err = waitJob(ctx, c, info, poll, phase, &op.Requests)
	op.Done = time.Now()
	if err != nil {
		op.Failed = fmt.Sprintf("job %s: %v", info.ID, err)
		return
	}
	op.Finished = info.Finished
	if info.State != api.StateDone {
		op.Failed = fmt.Sprintf("job %s ended %s: %s", info.ID, info.State, info.Error)
		return
	}
	r, err := c.Result(ctx, info.ID)
	op.Requests++
	if err != nil {
		op.Failed = fmt.Sprintf("job %s result: %v", info.ID, err)
		return
	}
	op.SolveTime, op.Exec, op.Mapping = r.MappingTime, r.Exec, r.Mapping
}

// runService runs a service workload: start the daemons (set-up, with a
// warm-up job, repeated setupReps times), replay the seeded open-loop
// schedule against the front door, then check every answer. A traced
// run also fetches the daemons' spans of every other job and derives the
// per-layer metrics.
func runService(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	res := &result{Provenance: newProvenance(w, cfg)}
	arr := w.schedule(cfg.Seed, cfg.Seconds)
	inputs := make([]input, len(arr))
	at := make([]time.Duration, len(arr))
	for i, a := range arr {
		at[i] = a.At
		if a.RepeatOf >= 0 {
			inputs[i] = inputs[a.RepeatOf]
			continue
		}
		in, err := w.makeInput(cfg.Seed, i, a.N)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	warm, err := w.makeInput(cfg.Seed, setupInput, w.Sizes[0])
	if err != nil {
		return nil, err
	}

	// Like a small client, the benchmark opens at most 2 connections to
	// each daemon.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer hc.CloseIdleConnections()
	var topo *topology
	defer func() {
		if topo != nil {
			topo.stop()
		}
	}()
	var setup []float64
	for rep := 0; rep < setupReps; rep++ {
		if topo != nil {
			topo.stop()
			topo = nil
		}
		t0 := time.Now()
		if topo, err = startTopology(cfg.Matchd, w.Kind, hc); err != nil {
			return nil, err
		}
		requests := 0
		info, err := topo.front.Submit(ctx, submitRequest(warm, w.MaxIterations))
		if err == nil {
			info, err = waitJob(ctx, topo.front, info, w.Poll, w.Poll, &requests)
		}
		if err != nil || info.State != api.StateDone {
			return nil, fmt.Errorf("set-up job: state %q: %v", info.State, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	frontBefore, solversBefore, err := topo.scrape(ctx)
	if err != nil {
		return nil, err
	}
	wait := func(t time.Time) {
		timer := time.NewTimer(time.Until(t))
		defer timer.Stop()
		select {
		case <-ctx.Done():
		case <-timer.C:
		}
	}
	job := func(i int, op *opRecord) {
		op.Stage, op.Fresh = arr[i].Stage, arr[i].RepeatOf < 0
		op.Traced = cfg.Trace && i%2 == 0
		// Successive jobs' phases follow the golden-ratio sequence, which
		// covers [0, poll) evenly in every stage of every run.
		_, frac := math.Modf(float64(i) * 0.6180339887498949)
		phase := time.Duration(frac * float64(w.Poll))
		serviceOp(ctx, topo.front, submitRequest(inputs[i], w.MaxIterations), w.Poll, phase, op)
	}
	ops := runOpenLoop(time.Now().Add(100*time.Millisecond), at[:w.openArrivals(arr)], wait, job)
	missing := 0
	if cfg.Trace {
		// Fetch now: the saturation stage's spans would push these out of
		// the daemon's bounded span ring.
		if missing, err = fetchServiceSpans(ctx, topo, ops, res); err != nil {
			return nil, err
		}
	}
	if w.Callers > 0 {
		// The time cap only guards a daemon far slower than the one the
		// job count was calibrated on.
		base := len(ops)
		closed := runClosedLoop(w.Callers, w.CallerJobs, cfg.Seconds, func(k int, op *opRecord) {
			op.Sched = time.Now()
			op.Sent = op.Sched
			job(base+k, op)
		})
		if cfg.Trace {
			more, err := fetchServiceSpans(ctx, topo, closed, res)
			if err != nil {
				return nil, err
			}
			missing += more
		}
		ops = append(ops, closed...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	frontAfter, solversAfter, err := topo.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := checkService(arr, inputs, ops, w.MaxIterations); err != nil {
		return nil, err
	}

	rss, err := topo.peakRSSKB()
	if err != nil {
		return nil, err
	}
	res.summarize(w, ops, setup, rss)
	res.slo(w, ops)
	if cfg.Trace {
		res.serviceLayers(w, ops, frontAfter.minus(frontBefore), solversAfter.minus(solversBefore), topo, missing)
	}
	return res, nil
}

// checkService verifies every completed job: a permutation whose
// reference ET equals the reported one bit for bit; a repeat returns its
// original's mapping; and the first fresh job of each size is identical
// to an in-process SolveMaTCH with the same seed and worker count. It
// also computes each fresh job's greedy baseline.
func checkService(arr []arrival, inputs []input, ops []opRecord, maxIterations int) error {
	firstOfSize := make(map[int]bool)
	for i := range ops {
		op := &ops[i]
		if op.Failed != "" {
			continue
		}
		in := inputs[i]
		if err := checkMapping(in.Inst, op.Mapping, op.Exec); err != nil {
			op.failCheck("job %d (n=%d): %v", i, in.N, err)
			continue
		}
		if j := arr[i].RepeatOf; j >= 0 {
			orig := &ops[j]
			if orig.Failed == "" && (!slices.Equal(orig.Mapping, op.Mapping) || math.Float64bits(orig.Exec) != math.Float64bits(op.Exec)) {
				op.failCheck("job %d repeats job %d but returned a different mapping", i, j)
			}
			continue
		}
		p, err := matchsim.ReadProblem(bytes.NewReader(in.Doc))
		if err != nil {
			return err
		}
		g, err := matchsim.SolveGreedy(p)
		if err != nil {
			return err
		}
		op.Greedy = g.Exec
		if firstOfSize[in.N] {
			continue
		}
		firstOfSize[in.N] = true
		direct, err := matchsim.SolveMaTCH(p, matchsim.MaTCHOptions{Seed: in.Seed, Workers: 1, MaxIterations: maxIterations})
		if err != nil {
			return err
		}
		if !slices.Equal(direct.Mapping, op.Mapping) || math.Float64bits(direct.Exec) != math.Float64bits(op.Exec) {
			op.failCheck("job %d (n=%d) differs from an in-process solve with the same seed", i, in.N)
		}
	}
	return nil
}

// fetchServiceSpans assembles each traced job's spans: the benchmark's
// own (the job from its due time, the scheduling lag, the submit round
// trip, and the wait from the daemon's finish to the benchmark seeing
// it) and the daemons' spans of the same trace. It returns how many
// daemon spans expected for the job's path were not found.
func fetchServiceSpans(ctx context.Context, t *topology, ops []opRecord, res *result) (int, error) {
	missing := 0
	for i := range ops {
		op := &ops[i]
		if !op.Traced || op.Failed != "" {
			continue
		}
		tid := op.TraceID
		root := newSpan(tid, "", "bench.job", benchNodeName, layerBench, op.Sched, op.Done)
		op.RootID = root.SpanID
		submit := newSpan(tid, root.SpanID, "client.submit", benchNodeName, layerHTTPAPI, op.Sent, op.Submitted)
		submit.SpanID = op.SubmitSpan
		notifyFrom := op.Submitted
		if op.Finished.After(notifyFrom) {
			notifyFrom = op.Finished
		}
		res.spans = append(res.spans, root,
			newSpan(tid, root.SpanID, "bench.sched_lag", benchNodeName, layerBench, op.Sched, op.Sent),
			submit,
			newSpan(tid, root.SpanID, "client.notify", benchNodeName, layerHTTPAPI, notifyFrom, op.Done))

		found := make(map[string]int)
		collect := func(c *client.Client, node string, coordinator bool) error {
			doc, err := c.Trace(ctx, tid)
			var apiErr *api.Error
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
				return nil // this daemon never saw the job
			}
			if err != nil {
				return fmt.Errorf("fetch trace %s from %s: %w", tid, node, err)
			}
			for _, s := range flattenDaemonSpans(doc, node, coordinator) {
				res.spans = append(res.spans, s)
				found[s.Layer+"/"+s.Name]++
			}
			return nil
		}
		if err := collect(t.front, "front", t.coordinator); err != nil {
			return 0, err
		}
		var want []string
		if t.coordinator {
			for k, c := range t.solvers {
				if err := collect(c, fmt.Sprintf("worker-%d", k+1), false); err != nil {
					return 0, err
				}
			}
			want = append(want, layerCluster+"/POST /v1/jobs", layerCluster+"/cluster-job")
		}
		// A repeat on the cluster rides another job's solve (or the
		// cache), so only a fresh job has worker spans in its trace.
		if !t.coordinator || op.Fresh {
			want = append(want, layerHTTPAPI+"/POST /v1/jobs", layerJobs+"/job", layerJobs+"/queue", layerCore+"/solve")
		}
		for _, k := range want {
			if found[k] == 0 {
				missing++
			} else {
				found[k]--
			}
		}
	}
	return missing, nil
}

// jobRoutes totals a per-route HTTP counter over the job API routes,
// leaving out the benchmark's own trace and metrics reads.
func jobRoutes(s scrape, name string) float64 {
	var total float64
	for route, v := range s.byLabel(name, "route") {
		if strings.Contains(route, "/v1/jobs") {
			total += v
		}
	}
	return total
}

// serviceLayers fills the per-layer metrics of a traced service run from
// the daemons' counters (front: the front door's; solvers: summed over
// the solving daemons) and the fetched spans.
func (r *result) serviceLayers(w workload, ops []opRecord, front, solvers scrape, t *topology, missing int) {
	counters := solverCounters{workers: 1}
	counters.addScrape(solvers)
	requests := 0
	for _, op := range ops {
		requests += op.Requests
		if op.Failed == "" && op.Fresh {
			counters.solves++
			counters.levels++
			counters.mappingNs += float64(op.SolveTime)
		}
	}
	m := newPerLayer()
	r.PerLayer = m
	counters.layerMetrics(m)

	// Queue wait as a share of latency, over the latency stage; the
	// deepest queue any traced job saw, over all stages.
	var queueNs, latencyNs float64
	byTrace := spansByTrace(r.spans)
	for _, op := range ops {
		if !op.Traced || op.Failed != "" {
			continue
		}
		for _, s := range byTrace[op.TraceID] {
			if s.Layer != layerJobs || s.Name != "queue" {
				continue
			}
			if d, err := strconv.Atoi(s.Attrs["depth_at_dequeue"]); err == nil {
				m["jobs.queue_depth_max"] = max(m["jobs.queue_depth_max"], float64(d))
			}
			if op.Stage == w.LatencyStage {
				queueNs += float64(s.DurationNs)
			}
		}
		if op.Stage == w.LatencyStage {
			latencyNs += float64(op.latency())
		}
	}
	m["jobs.queue_wait_share"] = ratio(queueNs, latencyNs)
	m["jobs.cache_hit_frac"] = ratio(solvers.sum("matchd_cache_hits_total"), solvers.sum("matchd_jobs_submitted_total"))
	m["httpapi.requests_per_job"] = ratio(float64(requests), float64(len(ops)))
	m["httpapi.error_frac"] = ratio(jobRoutes(front, "matchd_http_request_errors_total"), jobRoutes(front, "matchd_http_requests_total"))
	if t.coordinator {
		m["cluster.singleflight_hits"] = front.sum("matchd_cluster_singleflight_hits_total")
		m["cluster.cache_hit_frac"] = ratio(front.sum("matchd_cluster_cache_hits_total"), front.sum("matchd_cluster_jobs_submitted_total"))
		m["cluster.handoffs"] = front.sum("matchd_cluster_handoffs_total")
		routed := front.byLabel("matchd_cluster_routed_total", "worker")
		var most, total float64
		for _, u := range t.solverURLs {
			most = max(most, routed[u])
			total += routed[u]
		}
		m["cluster.route_imbalance"] = ratio(most, total/float64(len(t.solverURLs)))
	}
	r.traceSummary(w, ops, missing)
}
