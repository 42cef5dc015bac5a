package cost

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// State is a mutable mapping with incrementally maintained per-resource
// loads. Local-search style solvers (2-swap hill climbing, simulated
// annealing, the GA's post-pass) use it to score neighbourhood moves in
// O(deg) instead of re-walking the whole TIG.
//
// Only swap moves are exposed because the experiments use bijective
// mappings; SetTask supports general moves for many-to-one mappings.
// State is not safe for concurrent use.
type State struct {
	eval    *Evaluator
	mapping Mapping
	loads   []float64

	// Probe scratch for the delta ExecAfterSwap path: delta[r] holds the
	// load change of resource r for the probed move, valid only while
	// deltaEpoch[r] == epoch; touched lists the stamped resources.
	delta      []float64
	deltaEpoch []uint64
	touched    []int
	epoch      uint64

	// loadOrder caches the resources sorted by descending load (ties by
	// index), so a probe finds the maximum over un-probed resources by
	// walking a prefix instead of scanning all of them. It is rebuilt
	// lazily after any committed mutation.
	loadOrder  []int
	orderDirty bool
}

// NewState initialises incremental state for mapping m (copied).
func NewState(e *Evaluator, m Mapping) (*State, error) {
	if len(m) != e.n {
		return nil, fmt.Errorf("cost: mapping length %d for %d tasks", len(m), e.n)
	}
	if err := m.Validate(e.r); err != nil {
		return nil, err
	}
	s := &State{
		eval:       e,
		mapping:    m.Clone(),
		delta:      make([]float64, e.r),
		deltaEpoch: make([]uint64, e.r),
		touched:    make([]int, 0, 8),
		loadOrder:  make([]int, e.r),
		orderDirty: true,
	}
	s.loads = e.Loads(s.mapping, nil)
	return s, nil
}

// Mapping returns the current mapping. Callers must not mutate it.
func (s *State) Mapping() Mapping { return s.mapping }

// Loads returns the current per-resource loads. Callers must not mutate.
func (s *State) Loads() []float64 { return s.loads }

// Exec returns the current makespan.
func (s *State) Exec() float64 {
	maxLoad := math.Inf(-1)
	for _, l := range s.loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return maxLoad
}

// removeTask subtracts task t's contributions from the load vector,
// assuming the mapping still records t's current resource.
func (s *State) removeTask(t int) {
	e := s.eval
	rs := s.mapping[t]
	s.loads[rs] -= e.ComputeTime(t, rs)
	for _, nb := range e.tig.Neighbors(t) {
		b := s.mapping[nb.To]
		if b == rs {
			continue
		}
		c := float64(nb.Weight * e.links.Cost(rs, b))
		s.loads[rs] -= c
		s.loads[b] -= c
	}
}

// addTask adds task t's contributions for its current mapping entry.
func (s *State) addTask(t int) {
	e := s.eval
	rs := s.mapping[t]
	s.loads[rs] += e.ComputeTime(t, rs)
	for _, nb := range e.tig.Neighbors(t) {
		b := s.mapping[nb.To]
		if b == rs {
			continue
		}
		c := float64(nb.Weight * e.links.Cost(rs, b))
		s.loads[rs] += c
		s.loads[b] += c
	}
}

// SetTask moves task t to resource rs, updating loads incrementally.
func (s *State) SetTask(t, rs int) {
	if rs == s.mapping[t] {
		return
	}
	s.removeTask(t)
	s.mapping[t] = rs
	s.addTask(t)
	s.orderDirty = true
}

// Swap exchanges the resources of tasks t1 and t2, preserving
// permutation-ness, in O(deg(t1) + deg(t2)).
func (s *State) Swap(t1, t2 int) {
	if t1 == t2 {
		return
	}
	r1, r2 := s.mapping[t1], s.mapping[t2]
	if r1 == r2 {
		return
	}
	s.removeTask(t1)
	s.removeTask(t2)
	s.mapping[t1], s.mapping[t2] = r2, r1
	s.addTask(t1)
	s.addTask(t2)
	s.orderDirty = true
}

// ExecAfterSwap returns the makespan that Swap(t1, t2) would produce,
// without committing the move and without mutating any state. It is the
// innermost operation of the hill-climbing polish pass, so it takes the
// true delta path: the load changes of the O(deg) affected resources (the
// two swapped hosts plus every neighbour's host, whose link costs change
// with the endpoints) are accumulated into epoch-stamped scratch, and the
// post-swap makespan is max(affected new loads, largest unaffected load)
// — the latter read from a lazily maintained descending load order rather
// than an O(|Vr|) scan. Compared with the previous implementation
// (perform the double swap, scan all loads, swap back), a probe does two
// neighbour walks instead of eight and no full-vector scan.
func (s *State) ExecAfterSwap(t1, t2 int) float64 {
	if t1 == t2 {
		return s.Exec()
	}
	r1, r2 := s.mapping[t1], s.mapping[t2]
	if r1 == r2 {
		return s.Exec()
	}
	s.beginProbe()
	s.probeMove(t1, t2, r1, r2)
	s.probeMove(t2, t1, r2, r1)

	best := math.Inf(-1)
	for _, r := range s.touched {
		if v := s.loads[r] + s.delta[r]; v > best {
			best = v
		}
	}
	// The largest load among un-probed resources: first un-stamped entry
	// of the descending load order.
	s.ensureOrder()
	for _, r := range s.loadOrder {
		if s.deltaEpoch[r] == s.epoch {
			continue
		}
		if s.loads[r] > best {
			best = s.loads[r]
		}
		break
	}
	return best
}

// Descend runs steepest-descent 2-swap hill climbing: every step probes
// all task pairs (i < j) and applies the swap that lowers the makespan
// most (by more than 1e-12), until no pair improves. It returns the final
// makespan as the last winning probe computed it, and the number of
// probes. A non-nil ctx is checked before every step; on cancellation the
// descent stops with ctx's error.
func (s *State) Descend(ctx context.Context) (exec float64, probes int64, err error) {
	n := len(s.mapping)
	exec = s.Exec()
	for {
		if ctx != nil && ctx.Err() != nil {
			return exec, probes, ctx.Err()
		}
		bi, bj, best := -1, -1, exec
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				probes++
				if v := s.ExecAfterSwap(i, j); v < best-1e-12 {
					bi, bj, best = i, j, v
				}
			}
		}
		if bi < 0 {
			return exec, probes, nil
		}
		s.Swap(bi, bj)
		exec = best
	}
}

// beginProbe starts a fresh epoch for the delta scratch.
func (s *State) beginProbe() {
	s.epoch++
	if s.epoch == 0 { // uint64 wrap: invalidate stale stamps
		for i := range s.deltaEpoch {
			s.deltaEpoch[i] = 0
		}
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

// probeDelta stamps resource r for the current probe and accumulates v
// into its pending load change.
func (s *State) probeDelta(r int, v float64) {
	if s.deltaEpoch[r] != s.epoch {
		s.deltaEpoch[r] = s.epoch
		s.delta[r] = 0
		s.touched = append(s.touched, r)
	}
	s.delta[r] += v
}

// probeMove accumulates the load deltas of moving task t from resource
// from to resource to, where other is the task moving the opposite way
// (the edge between the swapped pair, if any, keeps its symmetric link
// cost and is skipped). Other tasks' placements are unchanged.
func (s *State) probeMove(t, other, from, to int) {
	e := s.eval
	s.probeDelta(from, -e.ComputeTime(t, from))
	s.probeDelta(to, e.ComputeTime(t, to))
	for _, nb := range e.tig.Neighbors(t) {
		if nb.To == other {
			continue
		}
		b := s.mapping[nb.To]
		if b != from {
			c := float64(nb.Weight * e.links.Cost(from, b))
			s.probeDelta(from, -c)
			s.probeDelta(b, -c)
		}
		if b != to {
			c := float64(nb.Weight * e.links.Cost(to, b))
			s.probeDelta(to, c)
			s.probeDelta(b, c)
		}
	}
}

// ensureOrder rebuilds the cached descending load order if a committed
// mutation invalidated it.
func (s *State) ensureOrder() {
	if !s.orderDirty {
		return
	}
	for i := range s.loadOrder {
		s.loadOrder[i] = i
	}
	sort.Slice(s.loadOrder, func(a, b int) bool {
		la, lb := s.loads[s.loadOrder[a]], s.loads[s.loadOrder[b]]
		if la != lb {
			return la > lb
		}
		return s.loadOrder[a] < s.loadOrder[b]
	})
	s.orderDirty = false
}

// execAfterSwapBySwapping is the pre-delta reference implementation:
// perform the swap, read the makespan, swap back. Retained for
// cross-checking the delta path in tests and benchmarks.
func (s *State) execAfterSwapBySwapping(t1, t2 int) float64 {
	s.Swap(t1, t2)
	exec := s.Exec()
	s.Swap(t1, t2)
	return exec
}

// Recompute rebuilds the load vector from scratch. Exposed for tests and
// for long-running searches that want to shed accumulated floating-point
// drift.
func (s *State) Recompute() {
	s.loads = s.eval.Loads(s.mapping, s.loads)
	s.orderDirty = true
}
