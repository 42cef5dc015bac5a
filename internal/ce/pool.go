package ce

import (
	"sync"
	"sync/atomic"
	"time"

	"matchsim/internal/xrand"
)

// unitDraws is the work-unit granularity of the sampling runtime: workers
// claim batches of this many consecutive draws from an atomic cursor. The
// unit is deliberately small — the hybrid rejection sampler's cost varies
// wildly between draws as rows degenerate (a draw resolving through the
// compact fallback costs O(n) per task, one resolving by rejection O(1)),
// so large static chunks leave workers idle at every iteration barrier.
// Per-unit overhead (one atomic add, one keyed reseed, one cancellation
// poll) is tens of nanoseconds against tens of microseconds of sampling.
const unitDraws = 32

// samplePool is the persistent work-stealing runtime behind Run: Workers
// long-lived goroutines spawned once per run, fed one iteration at a time.
// Within an iteration each worker claims work units (unitDraws consecutive
// draw slots) from an atomic cursor until the iteration is exhausted —
// dynamic stealing instead of static contiguous chunks.
//
// Determinism does not depend on the stealing schedule: the RNG stream of
// every unit is keyed to (run seed, iteration, unit index) via
// xrand.ReseedKeyed, and results land in slots keyed to the draw index.
// Any worker claiming any unit in any order therefore produces the same
// samples, which also makes runs reproducible across *different* worker
// counts — a strictly stronger guarantee than the per-(seed, workers)
// reproducibility of the earlier static-chunk runtime.
type samplePool[S any] struct {
	problem   Problem[S]
	seed      uint64
	solutions []S
	scores    []float64
	done      <-chan struct{}

	numUnits int
	iter     uint64       // written by the main loop before release; read by workers
	cursor   atomic.Int64 // next unclaimed unit of the current iteration
	errs     []error      // first sampling error per worker goroutine

	tokens chan struct{} // one token per worker per iteration; closed to stop
	wg     sync.WaitGroup

	// Per-iteration telemetry. iterStart and claimed are written by
	// runIteration before the token sends (happens-before the workers'
	// reads); claimed[w] is touched only by the goroutine holding worker
	// id w; busyNs accumulates each admission's drain time atomically so a
	// worker consuming two of an iteration's tokens still accounts once
	// per token.
	iterStart  time.Time
	claimed    []int64      // units claimed per worker this iteration
	busyNs     atomic.Int64 // summed per-token drain durations this iteration
	stealUnits int
	idleNs     int64
}

// newSamplePool spawns the worker goroutines. Callers must stop the pool
// with close() (idempotent via sync.Once is unnecessary — Run owns it).
func newSamplePool[S any](p Problem[S], workers int, seed uint64, solutions []S, scores []float64, done <-chan struct{}) *samplePool[S] {
	n := len(scores)
	pl := &samplePool[S]{
		problem:   p,
		seed:      seed,
		solutions: solutions,
		scores:    scores,
		done:      done,
		numUnits:  (n + unitDraws - 1) / unitDraws,
		errs:      make([]error, workers),
		claimed:   make([]int64, workers),
		tokens:    make(chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		go pl.worker(w)
	}
	return pl
}

// worker is one long-lived sampling goroutine. Consuming a token admits it
// to the current iteration; it then drains units until the cursor runs
// out. Token accounting is per-iteration, not per-goroutine: if a fast
// worker consumes two of an iteration's tokens (its second admission finds
// no units left) the WaitGroup still balances, so the barrier is correct
// under any scheduling.
func (pl *samplePool[S]) worker(w int) {
	rng := &xrand.RNG{} // reseeded per unit; zero state never drawn from
	for range pl.tokens {
		pl.drainIteration(w, rng)
		pl.busyNs.Add(time.Since(pl.iterStart).Nanoseconds())
		pl.wg.Done()
	}
}

// drainIteration claims and processes units until the iteration is done,
// the context is cancelled, or sampling fails.
func (pl *samplePool[S]) drainIteration(w int, rng *xrand.RNG) {
	n := len(pl.scores)
	for {
		u := pl.cursor.Add(1) - 1
		if u >= int64(pl.numUnits) {
			return
		}
		pl.claimed[w]++
		select {
		case <-pl.done:
			return
		default:
		}
		rng.ReseedKeyed(pl.seed, pl.iter, uint64(u))
		lo := int(u) * unitDraws
		hi := lo + unitDraws
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			score, err := pl.problem.Sample(rng, pl.solutions[i])
			if err != nil {
				pl.errs[w] = err
				return
			}
			pl.scores[i] = score
		}
	}
}

// runIteration samples and scores all draw slots for iteration iter,
// blocking until the barrier completes. The token sends happen-before the
// workers' reads of pl.iter, and the workers' slot writes happen-before
// wg.Wait returns, so no other synchronisation is needed.
func (pl *samplePool[S]) runIteration(iter int) {
	workers := cap(pl.tokens)
	pl.iter = uint64(iter)
	pl.cursor.Store(0)
	for w := range pl.claimed {
		pl.claimed[w] = 0
	}
	pl.busyNs.Store(0)
	pl.iterStart = time.Now()
	pl.wg.Add(workers)
	for w := 0; w < workers; w++ {
		pl.tokens <- struct{}{}
	}
	pl.wg.Wait()

	// Barrier telemetry. "Idle" is the time workers spent waiting at the
	// barrier after their last unit: tokens * wall - summed drain times.
	// "Steals" are the units fast workers claimed beyond an even share —
	// the load imbalance the dynamic cursor absorbed that a static split
	// would have serialised.
	wall := time.Since(pl.iterStart).Nanoseconds()
	idle := int64(workers)*wall - pl.busyNs.Load()
	if idle < 0 {
		idle = 0
	}
	pl.idleNs = idle
	fair := int64((pl.numUnits + workers - 1) / workers)
	steals := int64(0)
	for _, c := range pl.claimed {
		if c > fair {
			steals += c - fair
		}
	}
	pl.stealUnits = int(steals)
}

// lastIterStats reports the steal/idle telemetry of the most recent
// iteration. Call between iterations (the pool must be at the barrier).
func (pl *samplePool[S]) lastIterStats() (stealUnits int, idleNs int64) {
	return pl.stealUnits, pl.idleNs
}

// firstErr returns the first worker error of the last iteration, if any.
func (pl *samplePool[S]) firstErr() error {
	for _, err := range pl.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops the worker goroutines. The pool must be idle (no iteration
// in flight).
func (pl *samplePool[S]) close() { close(pl.tokens) }
