// Package stochmat implements the row-stochastic matrix that parameterises
// MaTCH's sampling distribution.
//
// Entry p_ij is the probability that task i is mapped to resource j. The
// CE iteration (paper Fig. 5) starts from the uniform matrix, re-estimates
// it from elite samples each round (eq. 11), smooths the update
// (eq. 13, P_{k+1} = zeta*Q + (1-zeta)*P_k) and stops once the matrix has
// degenerated — every row concentrating its mass on one column (Fig. 3).
//
// The kernel also provides the masked row sampling that GenPerm (Fig. 4)
// needs: drawing from a row restricted to the still-unassigned resources,
// which is equivalent to zeroing assigned columns and renormalising. The
// draws go through a per-iteration alias table (AliasTable), one sampler
// for every CE solver.
package stochmat

import (
	"fmt"
	"math"
	"strings"

	"matchsim/internal/xrand"
)

// Matrix is a dense row-major row-stochastic matrix. Rows index tasks,
// columns index resources. Matrices are square in the paper's experiments
// but the kernel supports rectangular shapes for the |Vt| != |Vr|
// extensions.
type Matrix struct {
	rows, cols int
	p          []float64
}

// NewUniform returns the rows x cols matrix with every entry 1/cols — the
// P_0 initialisation of the MaTCH algorithm.
func NewUniform(rows, cols int) *Matrix {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("stochmat: invalid shape %dx%d", rows, cols))
	}
	m := &Matrix{rows: rows, cols: cols, p: make([]float64, rows*cols)}
	u := 1 / float64(cols)
	for i := range m.p {
		m.p[i] = u
	}
	return m
}

// NewFromRows builds a matrix from explicit row data (copied), normalising
// each row to sum to one. Rows with zero mass are rejected.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("stochmat: empty row data")
	}
	cols := len(rows[0])
	m := &Matrix{rows: len(rows), cols: cols, p: make([]float64, len(rows)*cols)}
	for i, row := range rows {
		if len(row) != cols {
			return nil, fmt.Errorf("stochmat: ragged row %d (%d entries, want %d)", i, len(row), cols)
		}
		total := 0.0
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("stochmat: invalid entry %v at (%d,%d)", v, i, j)
			}
			total += v
		}
		if total <= 0 {
			return nil, fmt.Errorf("stochmat: row %d has zero mass", i)
		}
		for j, v := range row {
			m.p[i*cols+j] = v / total
		}
	}
	return m, nil
}

// Rows returns the number of rows (tasks).
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (resources).
func (m *Matrix) Cols() int { return m.cols }

// At returns p_ij.
func (m *Matrix) At(i, j int) float64 { return m.p[i*m.cols+j] }

// Row returns row i as a slice aliasing internal storage; callers must
// treat it as read-only.
func (m *Matrix) Row(i int) []float64 { return m.p[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{rows: m.rows, cols: m.cols, p: append([]float64(nil), m.p...)}
}

// Validate checks the stochastic invariants: entries in [0,1] and every
// row summing to 1 within tol.
func (m *Matrix) Validate(tol float64) error {
	for i := 0; i < m.rows; i++ {
		total := 0.0
		for j := 0; j < m.cols; j++ {
			v := m.At(i, j)
			if v < -tol || v > 1+tol || math.IsNaN(v) {
				return fmt.Errorf("stochmat: entry (%d,%d)=%v outside [0,1]", i, j, v)
			}
			total += v
		}
		if math.Abs(total-1) > tol {
			return fmt.Errorf("stochmat: row %d sums to %v", i, total)
		}
	}
	return nil
}

// MaxRow returns, for row i, the largest probability and its column — the
// mu_k^i of the stopping criterion (eq. 12). Ties resolve to the lowest
// column for determinism.
func (m *Matrix) MaxRow(i int) (col int, p float64) {
	row := m.Row(i)
	col, p = 0, row[0]
	for j := 1; j < m.cols; j++ {
		if row[j] > p {
			col, p = j, row[j]
		}
	}
	return col, p
}

// ArgmaxAssignment returns the column of each row's maximum — the mapping
// a degenerate matrix encodes.
func (m *Matrix) ArgmaxAssignment() []int {
	out := make([]int, m.rows)
	for i := range out {
		out[i], _ = m.MaxRow(i)
	}
	return out
}

// IsDegenerate reports whether every row has its maximum probability at
// least thresh (e.g. 0.999) — the numeric version of the degenerate
// matrix of Fig. 3.
func (m *Matrix) IsDegenerate(thresh float64) bool {
	for i := 0; i < m.rows; i++ {
		if _, p := m.MaxRow(i); p < thresh {
			return false
		}
	}
	return true
}

// RowEntropy returns the Shannon entropy (nats) of row i: log(cols) for
// the uniform row, 0 for a degenerate one.
func (m *Matrix) RowEntropy(i int) float64 {
	h := 0.0
	for _, v := range m.Row(i) {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// MeanEntropy averages RowEntropy over all rows — the convergence
// telemetry MaTCH reports each iteration.
func (m *Matrix) MeanEntropy() float64 {
	total := 0.0
	for i := 0; i < m.rows; i++ {
		total += m.RowEntropy(i)
	}
	return total / float64(m.rows)
}

// Smooth applies eq. (13): m = zeta*q + (1-zeta)*m, entrywise. Both
// matrices must share a shape; zeta outside [0,1] is rejected.
func (m *Matrix) Smooth(q *Matrix, zeta float64) error {
	if q.rows != m.rows || q.cols != m.cols {
		return fmt.Errorf("stochmat: smoothing %dx%d with %dx%d", m.rows, m.cols, q.rows, q.cols)
	}
	if zeta < 0 || zeta > 1 {
		return fmt.Errorf("stochmat: smoothing factor %v outside [0,1]", zeta)
	}
	for j := range m.p {
		m.p[j] = smooth(zeta, q.p[j], m.p[j])
	}
	return nil
}

// SmoothElite is the CE update, eq. (11) and eq. (13) in one pass: with
// q_ij the share of the elite mappings that assign row i to column j,
// row i of m becomes zeta*q_i + (1-zeta)*m_i. counts is scratch of m's
// size. Each elite assignment adds 1/|elite| to it, in elite order, and
// each row is divided by its total, so q has the bits SetRow would give
// the counts, without a Q matrix. Each elite mapping must assign every
// row one column.
func (m *Matrix) SmoothElite(elite [][]int, counts []float64, zeta float64) error {
	if len(elite) == 0 || len(counts) != len(m.p) || zeta < 0 || zeta > 1 {
		return fmt.Errorf("stochmat: smoothing %dx%d with %d elite, %d counts, factor %v",
			m.rows, m.cols, len(elite), len(counts), zeta)
	}
	clear(counts)
	inv := 1 / float64(len(elite))
	for _, x := range elite {
		if len(x) != m.rows {
			return fmt.Errorf("stochmat: elite mapping of length %d for %d rows", len(x), m.rows)
		}
		for i, j := range x {
			if j < 0 || j >= m.cols {
				return fmt.Errorf("stochmat: elite maps row %d to column %d outside [0,%d)", i, j, m.cols)
			}
			counts[i*m.cols+j] += inv
		}
	}
	for i := 0; i < m.rows; i++ {
		row := counts[i*m.cols : (i+1)*m.cols]
		total := 0.0
		for _, v := range row {
			total += v
		}
		dst := m.Row(i)
		for j, v := range row {
			dst[j] = smooth(zeta, v/total, dst[j])
		}
	}
	return nil
}

// smooth returns zeta*q + (1-zeta)*p with each product rounded on its
// own: the conversions forbid the fused multiply-add Go may otherwise
// emit on arm64, ppc64le, s390x, riscv64 and loong64, even across
// statements.
func smooth(zeta, q, p float64) float64 {
	return float64(zeta*q) + float64((1-zeta)*p)
}

// SetRow overwrites row i with the normalised values of row (copied).
func (m *Matrix) SetRow(i int, row []float64) error {
	if len(row) != m.cols {
		return fmt.Errorf("stochmat: SetRow with %d entries, want %d", len(row), m.cols)
	}
	total := 0.0
	for _, v := range row {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("stochmat: SetRow with invalid entry %v", v)
		}
		total += v
	}
	if total <= 0 {
		return fmt.Errorf("stochmat: SetRow with zero mass")
	}
	dst := m.p[i*m.cols : (i+1)*m.cols]
	for j, v := range row {
		dst[j] = v / total
	}
	return nil
}

// Sampler draws GenPerm permutations (paper Fig. 4) from a Matrix through
// its per-iteration AliasTable. One Sampler holds the scratch buffers for
// one goroutine; create one per worker and reuse it across draws to stay
// allocation-free in the hot loop.
type Sampler struct {
	cols   int
	masked []bool // columns already assigned in the current draw
	order  []int  // task visiting order buffer
	free   []int  // unassigned columns (compact, swap-removed)
	pos    []int  // pos[col] = index of col in free

	// stats accumulates draw telemetry. The counters are plain uint64s — a
	// Sampler is single-goroutine scratch — and drain via TakeStats, so
	// callers can attribute them per draw.
	stats SampleStats
}

// SampleStats counts the sampling work SamplePermutation performed: how
// often the rejection fast path missed and how often a task fell through
// to the exact compact draw — the acceptance signals the CE tutorial's
// diagnostics watch (a converged matrix rejects almost never, a crowded
// one falls back almost always).
type SampleStats struct {
	// RejectTries counts rejected fast-path tries: draws from the full-row
	// alias distribution that landed on an already-assigned column and
	// were thrown away.
	RejectTries uint64
	// FallbackDraws counts task assignments that exhausted the rejection
	// budget and resolved through the exact O(remaining) compact draw.
	FallbackDraws uint64
}

// TakeStats returns the accumulated draw stats and zeroes them.
func (s *Sampler) TakeStats() SampleStats {
	st := s.stats
	s.stats = SampleStats{}
	return st
}

// NewSampler returns a sampler for matrices with the given column count.
func NewSampler(cols int) *Sampler {
	return &Sampler{
		cols:   cols,
		masked: make([]bool, cols),
		order:  make([]int, 0, cols),
		free:   make([]int, cols),
		pos:    make([]int, cols),
	}
}

// maxRejects is the rejection budget of SamplePermutation before it falls
// back to the exact O(remaining) compact draw. A small fixed cap measures
// best: on a converged (near-degenerate) matrix the first try almost
// always lands, and on a near-uniform one a larger budget just burns extra
// RNG draws on tries whose acceptance probability the fallback's compact
// walk beats anyway — the late-draw fallbacks sum to well under the
// edge-scoring work per draw.
//
// The effective budget additionally adapts *within* a draw: after a task
// exhausts its tries without a hit, subsequent tasks get a single try
// until one hits again. A full miss is strong evidence the draw has
// entered the crowded regime (most of the row's mass on already-assigned
// columns) where each further try is almost surely wasted, while on a
// converged matrix the single try still hits nearly always and instantly
// restores the full budget. The draw-local state keeps sampling
// deterministic for a fixed RNG stream.
const maxRejects = 3

// SamplePermutation draws one bijective mapping from m following GenPerm
// (paper Fig. 4): visit tasks in a fresh uniformly random order; for each
// task draw a resource from its row restricted to unassigned columns
// (zeroing assigned columns and renormalising); mark the drawn column
// assigned. at must be the alias table of m (rebuilt after every change
// to m); dst must have length m.Rows() and receives the draw.
//
// Each task first tries rejection from its full-row distribution — an
// O(1) alias draw from one 64-bit variate, whose 128-bit product with the
// row's live-slot count picks the slot (high word) and decides between
// the slot's column and its alias (low word against the slot's
// threshold) — redrawn when the sampled column is already assigned.
// After maxRejects misses it switches to the exact masked draw, evaluated
// compactly over the unassigned columns only — O(remaining) via a
// swap-removed free list, not O(n) over the full row. A near-degenerate
// matrix resolves almost every task on the first try; a near-uniform one
// degrades to the compact draw, whose total cost over a whole permutation
// is O(n^2/2) simple accumulations. Rejection followed by the exact
// masked draw samples exactly the GenPerm distribution (internal/verify
// holds the linear reference walk the distribution tests compare against).
//
// If a task's row has zero remaining mass (all its probability sits on
// already-assigned columns), the draw falls back to a uniform choice among
// the unassigned columns — the natural completion the paper leaves
// implicit, needed once rows become nearly degenerate.
//
// The rejection loop consumes a variable number of RNG variates, so the
// draw stream is deterministic for a fixed RNG stream but differs from
// the reference walk's.
func (s *Sampler) SamplePermutation(m *Matrix, at *AliasTable, rng *xrand.RNG, dst []int) error {
	if err := s.checkSquare(m, dst); err != nil {
		return err
	}
	if at == nil {
		return fmt.Errorf("stochmat: SamplePermutation needs the matrix's alias table")
	}
	if err := at.checkShape(m); err != nil {
		return err
	}
	s.beginDraw(m.rows, rng)
	free := s.free[:m.cols]
	for j := range free {
		free[j] = j
		s.pos[j] = j
	}
	k := m.cols // unassigned column count
	budget := maxRejects
	for _, task := range s.order {
		choice := -1
		if at.total[task] > 1e-300 {
			// One alias draw per try: one 64-bit variate and one table
			// read (see pick). No row[j] > 0 re-check — the alias table
			// gives zero-weight columns no slot mass, so they are never
			// drawn, and re-reading the row would cost an extra random
			// access per try. The table is support-compacted: the row's
			// live slots cover its nonzero columns, so rows with exact
			// zeros draw from O(nnz) slots. For strictly positive rows
			// there is one slot per column and the slot columns are the
			// slot indices, so the draw stream is identical to the
			// uncompacted table's.
			slots := at.rowSlots(task)
			for try := 0; try < budget; try++ {
				col := pick(slots, rng.Uint64())
				if !s.masked[col] {
					choice = col
					break
				}
				s.stats.RejectTries++
			}
		}
		var freeIdx int
		if choice >= 0 {
			freeIdx = s.pos[choice]
			budget = maxRejects
		} else {
			budget = 1
			s.stats.FallbackDraws++
			// Exact masked draw over the unassigned columns only: one pass
			// for the remaining mass, then a second that stops at the first
			// prefix sum exceeding x.
			row := m.Row(task)
			total := 0.0
			for idx := 0; idx < k; idx++ {
				total += row[free[idx]]
			}
			if total > 1e-300 {
				x := rng.Float64() * total
				acc := 0.0
				freeIdx = -1
				for idx := 0; idx < k; idx++ {
					acc += row[free[idx]]
					if acc > x {
						freeIdx = idx
						break
					}
				}
				if freeIdx < 0 {
					// x rounded to (or past) the total: clamp to the last
					// positive-weight unassigned column.
					for freeIdx = k - 1; freeIdx > 0 && row[free[freeIdx]] <= 0; freeIdx-- {
					}
				}
			} else {
				// No mass left on unassigned columns: uniform fallback.
				freeIdx = rng.Intn(k)
			}
			choice = free[freeIdx]
		}
		dst[task] = choice
		s.masked[choice] = true
		k--
		last := free[k]
		free[freeIdx] = last
		s.pos[last] = freeIdx
	}
	return nil
}

// checkSquare validates the shape preconditions of SamplePermutation.
func (s *Sampler) checkSquare(m *Matrix, dst []int) error {
	if m.rows != m.cols {
		return fmt.Errorf("stochmat: SamplePermutation on non-square %dx%d matrix", m.rows, m.cols)
	}
	if m.cols != s.cols {
		return fmt.Errorf("stochmat: sampler built for %d columns, matrix has %d", s.cols, m.cols)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("stochmat: destination length %d, want %d", len(dst), m.rows)
	}
	return nil
}

// beginDraw resets the column mask and draws a fresh task visiting order.
func (s *Sampler) beginDraw(rows int, rng *xrand.RNG) {
	for j := range s.masked {
		s.masked[j] = false
	}
	if cap(s.order) < rows {
		s.order = make([]int, rows)
	}
	s.order = s.order[:rows]
	rng.PermInto(s.order)
}

// String renders the matrix with fixed precision, one row per line —
// handy for the Fig. 3 evolution snapshots.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.3f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Heatmap renders the matrix as a coarse ASCII heat map: each cell one
// glyph from light to dark by probability mass. Used to visualise the
// Fig. 3 evolution in terminal output.
func (m *Matrix) Heatmap() string {
	glyphs := []byte(" .:-=+*#%@")
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			v := m.At(i, j)
			idx := int(v * float64(len(glyphs)))
			if idx >= len(glyphs) {
				idx = len(glyphs) - 1
			}
			if idx < 0 {
				idx = 0
			}
			b.WriteByte(glyphs[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
