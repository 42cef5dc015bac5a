package jobs

import (
	"fmt"
	"time"
)

// Finished-job retention, one rule for both serving tiers: a store keeps
// the newest RetainFinished finished jobs and retires any job finished
// longer than RetainFor ago. At four spans a job, RetainFinished is what
// the tracer's default 4,096-span ring holds, so a retained job's trace
// is normally still readable too.
const (
	RetainFinished = 1024
	RetainFor      = time.Hour
)

// ErrRetiredJob reports a lookup for a job that finished and was then
// retired from the store. It wraps ErrUnknownJob, so callers that only
// ask "is the id known" keep answering 404; the HTTP layer adds the
// api.CodeJobRetired code.
var ErrRetiredJob = fmt.Errorf("%w: retired after it finished", ErrUnknownJob)

// Retirer applies the retention rule. It remembers finished jobs in
// finish order and, for lookups, the ids of the last few retired ones
// (four times the count cap), so a recently retired id is told apart
// from one that was never issued. Like ResultCache it is not internally
// synchronised: the owner calls it under its own lock.
type Retirer struct {
	maxFinished int
	maxAge      time.Duration
	finished    []finishedJob // oldest first
	retired     map[string]struct{}
	tombs       []string // ring of retired ids backing retired
	next        int      // ring slot the next retired id overwrites
}

type finishedJob struct {
	id string
	at time.Time
}

// NewRetirer builds a Retirer that keeps the newest maxFinished finished
// jobs, each for at most maxAge. Both tiers use RetainFinished and
// RetainFor.
func NewRetirer(maxFinished int, maxAge time.Duration) *Retirer {
	return &Retirer{maxFinished: maxFinished, maxAge: maxAge,
		retired: make(map[string]struct{}), tombs: make([]string, 0, 4*maxFinished)}
}

// Finished records that job id reached a terminal state at time at.
// Calls must come in finish order.
func (rt *Retirer) Finished(id string, at time.Time) {
	rt.finished = append(rt.finished, finishedJob{id, at})
}

// Expire retires every finished job beyond the count cap or older than
// the age cap at now, oldest first, calling drop for each so the owner
// removes it from its store.
func (rt *Retirer) Expire(now time.Time, drop func(id string)) {
	cutoff := now.Add(-rt.maxAge)
	n := 0
	for n < len(rt.finished) && (len(rt.finished)-n > rt.maxFinished || rt.finished[n].at.Before(cutoff)) {
		id := rt.finished[n].id
		rt.remember(id)
		drop(id)
		n++
	}
	if n > 0 {
		// Appends reallocate past the popped prefix, so the backing array
		// stays within a small factor of maxFinished.
		clear(rt.finished[:n])
		rt.finished = rt.finished[n:]
	}
}

// remember files id as retired, forgetting the oldest remembered id once
// the ring is full.
func (rt *Retirer) remember(id string) {
	if len(rt.tombs) < cap(rt.tombs) {
		rt.tombs = append(rt.tombs, id)
	} else {
		delete(rt.retired, rt.tombs[rt.next])
		rt.tombs[rt.next] = id
		rt.next = (rt.next + 1) % len(rt.tombs)
	}
	rt.retired[id] = struct{}{}
}

// Retired reports whether id belongs to a recently retired job.
func (rt *Retirer) Retired(id string) bool {
	_, ok := rt.retired[id]
	return ok
}
