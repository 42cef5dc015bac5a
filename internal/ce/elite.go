package ce

import (
	"math"
	"sync"
	"sync/atomic"
)

// Elite keeps the best k draws of one CE iteration while the workers
// draw them, under the strict total order the update reads them in:
// ascending score, ties broken by ascending sample index. Because the
// order is total, the kept set is the same whatever the offer order or
// the worker that drew each sample, so runs stay reproducible across
// worker counts.
//
// It replaces keeping all N = 2n^2 draws of an iteration and selecting
// the elite afterwards: only k = floor(rho*N) entries are held, each
// owning one solution buffer, and a worker hands its scratch buffer over
// on admission and takes the evicted entry's buffer back, so a draw is
// never copied. The set is one max-heap under a mutex. The worst kept
// draw's key is published atomically, so the common rejection — a draw
// that ranks after the worst kept one, once the set is full — takes no
// lock.
type Elite struct {
	// worstScore (float64 bits) and worstIdx publish the worst kept
	// draw's key once the set is full, (+Inf, MaxInt) before. Keys only
	// fall within an iteration, and Offer stores the index before the
	// score while readers load the score first, so a reader pairs a
	// score with an index at least as new. Such a pair never ranks before
	// the current worst kept draw (its score is no lower), so a draw that
	// ranks after the pair is safely rejected without the lock.
	worstScore atomic.Uint64
	worstIdx   atomic.Int64
	// Keep the published key off the cache line the locked writes hit.
	_ [48]byte

	mu   sync.Mutex
	ents []eliteEntry // ents[:size] is a max-heap: the root is the worst kept draw
	size int
}

type eliteEntry struct {
	score float64
	idx   int
	sol   []int
}

// after reports whether a ranks after b: a worse score, or an equal
// score and a later sample index.
func (a *eliteEntry) after(b *eliteEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.idx > b.idx
}

// NewElite returns an empty set of capacity k >= 1, with one buffer per
// entry from newSolution. These k buffers and one scratch buffer per
// worker are all the solution memory an iteration needs.
func NewElite(k int, newSolution func() []int) *Elite {
	e := &Elite{ents: make([]eliteEntry, k)}
	for i := range e.ents {
		e.ents[i].sol = newSolution()
	}
	e.Reset()
	return e
}

// Reset empties the set for the next iteration; the entries' buffers
// stay as spares. Call it only while no Offer is in flight.
func (e *Elite) Reset() {
	e.size = 0
	e.worstIdx.Store(math.MaxInt)
	e.worstScore.Store(math.Float64bits(math.Inf(1)))
}

// Offer submits draw idx with its score, held in sol. It is safe for
// concurrent use. If the draw is kept, Offer takes sol and returns a
// spare buffer in its place (an evicted entry's or a fresh slot's);
// otherwise it returns sol. Either way the caller owns the returned
// buffer and may overwrite it with its next draw.
func (e *Elite) Offer(score float64, idx int, sol []int) []int {
	draw := eliteEntry{score: score, idx: idx, sol: sol}
	worst := eliteEntry{score: math.Float64frombits(e.worstScore.Load())}
	worst.idx = int(e.worstIdx.Load())
	if draw.after(&worst) {
		return sol
	}
	e.mu.Lock()
	var spare []int
	switch {
	case e.size < len(e.ents):
		spare = e.ents[e.size].sol
		e.up(draw, e.size)
		e.size++
		if e.size == len(e.ents) {
			e.publishWorst()
		}
	case draw.after(&e.ents[0]):
		spare = sol
	default:
		spare = e.ents[0].sol
		e.down(draw, 0, e.size)
		e.publishWorst()
	}
	e.mu.Unlock()
	return spare
}

// publishWorst publishes the root's key, index first (see worstScore).
func (e *Elite) publishWorst() {
	e.worstIdx.Store(int64(e.ents[0].idx))
	e.worstScore.Store(math.Float64bits(e.ents[0].score))
}

// Sort orders the kept draws best first, in place. Call it once all
// offers of the iteration are in; the set takes no more offers until
// Reset.
func (e *Elite) Sort() {
	for end := e.size - 1; end > 0; end-- {
		last := e.ents[end]
		e.ents[end] = e.ents[0]
		e.down(last, 0, end)
	}
}

// Len returns the number of kept draws.
func (e *Elite) Len() int { return e.size }

// At returns the i-th kept draw: its score, its sample index and the
// buffer holding it. After Sort, i = 0 is the best.
func (e *Elite) At(i int) (score float64, idx int, sol []int) {
	ent := &e.ents[i]
	return ent.score, ent.idx, ent.sol
}

// up puts x in the hole at i and moves it towards the root while it
// ranks after its parent.
func (e *Elite) up(x eliteEntry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.after(&e.ents[parent]) {
			break
		}
		e.ents[i] = e.ents[parent]
		i = parent
	}
	e.ents[i] = x
}

// down puts x in the hole at i and moves it down within ents[:n] while a
// child ranks after it.
func (e *Elite) down(x eliteEntry, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.ents[r].after(&e.ents[c]) {
			c = r
		}
		if !e.ents[c].after(&x) {
			break
		}
		e.ents[i] = e.ents[c]
		i = c
	}
	e.ents[i] = x
}
