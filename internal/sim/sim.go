// Package sim is a discrete-event execution simulator for mapped
// data-parallel applications: it *runs* a TIG under a mapping instead of
// just scoring it, validating that the paper's analytic cost model
// (eqs. 1-2) predicts what an actual bulk-synchronous execution would
// measure.
//
// The execution model matches the paper's cost semantics:
//
//   - An application proceeds in supersteps (the overset-grid solvers the
//     paper targets iterate: compute on each grid, then exchange boundary
//     values with overlapping grids).
//   - Each resource is a serial processor: it executes the compute work
//     of its tasks and the per-edge communication work (sends and
//     receives) one item at a time.
//   - Task t's compute work costs W^t * w_s on its resource s. Each TIG
//     edge (t, a) crossing resources s != b costs C^{t,a} * c_{s,b} of
//     send work on s and the same amount of receive work on b — exactly
//     the two per-resource charges eq. (1) sums.
//   - A superstep ends when every queue drains (a barrier); the simulated
//     makespan is the finish time of the last superstep.
//
// Because the analytic Exec is the maximum total work assigned to any
// resource, the simulated per-step makespan can never beat it; scheduling
// gaps (a receive arriving after its target went idle) can only add to
// it. The simulator therefore reports both the simulated makespan and its
// ratio to the analytic prediction — the validation number the tests pin.
package sim

import (
	"container/heap"
	"fmt"

	"matchsim/internal/cost"
)

// jobKind discriminates work items.
type jobKind uint8

const (
	jobCompute jobKind = iota
	jobSend
	jobReceive
)

// job is one unit of serial work on a resource.
type job struct {
	kind     jobKind
	task     int     // computing/sending task
	peer     int     // the far-end task for send/receive
	duration float64 // time units on the executing resource
}

// event is a job completion at a point in simulated time.
type event struct {
	time     float64
	resource int
	seq      int // tie-breaker for determinism
	job      job
}

// eventHeap is a min-heap on (time, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Report is the outcome of one simulated execution.
type Report struct {
	// Makespan is the simulated finish time across all supersteps.
	Makespan float64
	// PerStep is the duration of each superstep.
	PerStep []float64
	// BusyTime[s] is the total time resource s spent executing work.
	BusyTime []float64
	// IdleTime[s] is Makespan - BusyTime[s].
	IdleTime []float64
	// Events counts processed job completions.
	Events int
	// AnalyticExec is the cost model's per-superstep prediction (eq. 2).
	AnalyticExec float64
	// ModelRatio is PerStep mean / AnalyticExec: 1.0 means the analytic
	// model exactly predicts the simulated execution; values above 1
	// measure scheduling (dependency) overhead the model ignores.
	ModelRatio float64
}

// Run simulates `supersteps` bulk-synchronous iterations of the mapped
// application and returns the measured Report.
func Run(eval *cost.Evaluator, m cost.Mapping, supersteps int) (*Report, error) {
	n := eval.NumTasks()
	r := eval.NumResources()
	if len(m) != n {
		return nil, fmt.Errorf("sim: mapping length %d for %d tasks", len(m), n)
	}
	if err := m.Validate(r); err != nil {
		return nil, err
	}
	if supersteps < 1 {
		return nil, fmt.Errorf("sim: superstep count %d < 1", supersteps)
	}

	tig := eval.TIG()
	platform := eval.Platform()
	rep := &Report{
		BusyTime:     make([]float64, r),
		IdleTime:     make([]float64, r),
		AnalyticExec: eval.Exec(m),
	}

	now := 0.0
	for step := 0; step < supersteps; step++ {
		stepStart := now
		// Per-resource serial queues, seeded with compute jobs in task
		// order (deterministic).
		queues := make([][]job, r)
		for t := 0; t < n; t++ {
			queues[m[t]] = append(queues[m[t]], job{
				kind: jobCompute, task: t, duration: eval.ComputeTime(t, m[t]),
			})
		}
		inFlight := make([]bool, r)
		var h eventHeap
		seq := 0
		// start launches resource s's next queued job at time `at` if s
		// is idle and has work. A resource executes one job at a time.
		start := func(s int, at float64) {
			if inFlight[s] || len(queues[s]) == 0 {
				return
			}
			j := queues[s][0]
			queues[s] = queues[s][1:]
			inFlight[s] = true
			finish := at + j.duration
			rep.BusyTime[s] += j.duration
			heap.Push(&h, event{time: finish, resource: s, seq: seq, job: j})
			seq++
		}
		// Kick every resource's first job at the barrier.
		for s := 0; s < r; s++ {
			start(s, stepStart)
		}

		stepEnd := stepStart
		for h.Len() > 0 {
			e := heap.Pop(&h).(event)
			rep.Events++
			inFlight[e.resource] = false
			if e.time > stepEnd {
				stepEnd = e.time
			}
			switch e.job.kind {
			case jobCompute:
				// Emit one send per crossing edge, appended to this
				// resource's queue.
				t := e.job.task
				s := m[t]
				for _, nb := range tig.Neighbors(t) {
					b := m[nb.To]
					if b == s {
						continue
					}
					queues[s] = append(queues[s], job{
						kind: jobSend, task: t, peer: nb.To,
						duration: nb.Weight * platform.LinkCost(s, b),
					})
				}
			case jobSend:
				// The message lands at the receiver as receive work of
				// equal cost (eq. 1 charges both endpoints).
				t, a := e.job.task, e.job.peer
				b := m[a]
				queues[b] = append(queues[b], job{
					kind: jobReceive, task: a, peer: t,
					duration: e.job.duration,
				})
				// An idle receiver can start the receive immediately.
				start(b, e.time)
			case jobReceive:
				// Pure work; nothing follows.
			}
			// The completing resource picks up its next queued job.
			start(e.resource, e.time)
		}
		rep.PerStep = append(rep.PerStep, stepEnd-stepStart)
		now = stepEnd
	}

	rep.Makespan = now
	for s := 0; s < r; s++ {
		rep.IdleTime[s] = rep.Makespan - rep.BusyTime[s]
	}
	if rep.AnalyticExec > 0 {
		mean := 0.0
		for _, d := range rep.PerStep {
			mean += d
		}
		mean /= float64(len(rep.PerStep))
		rep.ModelRatio = mean / rep.AnalyticExec
	}
	return rep, nil
}
