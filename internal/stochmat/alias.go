package stochmat

import (
	"fmt"
	"math"
	"math/bits"

	"matchsim/internal/xrand"
)

// AliasTable holds a Walker/Vose alias structure for every row of a
// Matrix, giving O(1) categorical draws from the full (unmasked) row
// distribution — the fast path of the GenPerm rejection sampler and the
// whole draw of the unconstrained many-to-one sampler. It is rebuilt once
// per CE iteration (after the eq. 13 smoothing update) and then read
// concurrently by every sampling worker; the per-row build is amortised
// over the N = 2n^2 draws of the iteration.
//
// The table is support-compacted: a row with nnz nonzero columns builds
// only nnz live slots (slot j stores its column explicitly). The slot
// storage keeps the fixed i*cols stride, so no reallocation ever happens
// at a fixed shape. For strictly positive rows the compacted table is
// slot-for-slot identical to the uncompacted one (nnz == cols and slot
// columns equal slot indices), so draw streams are unchanged.
//
// Each draw consumes exactly one 64-bit variate x, split by one
// 64x64->128-bit multiply by nSup (Lemire's multiply-high): the high word
// picks a live slot, the low word accepts the slot's own column iff it is
// below the slot's integer threshold, else the draw returns the alias —
// the fixed-point form of splitting U[0,1) * nSup into an integer part
// (the slot) and a fractional part (the accept test). Columns with zero
// probability receive zero slot mass and are never aliased to, so they
// are never drawn.
type AliasTable struct {
	rows, cols int
	slots      []aliasSlot // slots[i*cols+j]: live slot j of row i
	supLen     []int32     // live slots per row (cols for degenerate rows)
	total      []float64   // per-row weight totals (for degenerate-row detection)

	// build scratch, reused across Rebuild calls.
	scaled     []float64
	small      []int32
	large      []int32
	supScratch []int32
}

// aliasSlot packs a slot's acceptance threshold, own column, and fallback
// column into 16 bytes, so a draw's threshold compare and column read
// touch one cache line instead of separate arrays. thresh is the slot's
// acceptance probability p as the 64-bit fixed-point floor(p * 2^64), or
// MaxUint64 for the always-accept slots, whose alias is their col. col is
// the column the slot accepts to — the slot index itself for uncompacted
// (full-support) rows, the j-th nonzero column for compacted ones.
type aliasSlot struct {
	thresh uint64
	col    int32
	alias  int32
}

// pick draws one column from a row's live slots with the 64-bit variate
// x: the high word of x * len(slots) picks the slot, and the low word
// accepts the slot's own column iff it is below the slot's threshold.
// It is the one alias draw rule, shared by Sample and the GenPerm try
// loop, and small enough to inline into both.
func pick(slots []aliasSlot, x uint64) int {
	j, frac := bits.Mul64(x, uint64(len(slots)))
	slot := slots[j]
	if frac < slot.thresh {
		return int(slot.col)
	}
	return int(slot.alias)
}

// NewAliasTable builds the alias structure of m.
func NewAliasTable(m *Matrix) *AliasTable {
	a := &AliasTable{}
	a.Rebuild(m)
	return a
}

// Rows returns the number of rows.
func (a *AliasTable) Rows() int { return a.rows }

// Cols returns the number of columns.
func (a *AliasTable) Cols() int { return a.cols }

// RowTotal returns the total weight of row i as accumulated during the
// build (a left-to-right sum), used to detect (numerically) empty rows.
func (a *AliasTable) RowTotal(i int) float64 { return a.total[i] }

// Rebuild refreshes every row of the table from m, reallocating only on
// shape change. It must not run concurrently with readers; the CE loop
// calls it from the single-threaded Update step.
func (a *AliasTable) Rebuild(m *Matrix) {
	if a.rows != m.rows || a.cols != m.cols {
		a.rows, a.cols = m.rows, m.cols
		a.slots = make([]aliasSlot, m.rows*m.cols)
		a.supLen = make([]int32, m.rows)
		a.total = make([]float64, m.rows)
		a.scaled = make([]float64, m.cols)
		a.small = make([]int32, 0, m.cols)
		a.large = make([]int32, 0, m.cols)
		a.supScratch = make([]int32, m.cols)
	}
	for i := 0; i < m.rows; i++ {
		a.buildRow(i, m)
	}
}

// buildRow runs Vose's construction for one row over the row's support,
// found by a scan for its nonzero columns. The small/large worklists are
// processed in ascending-column order, so the table (and therefore every
// draw stream) is deterministic for given row data.
func (a *AliasTable) buildRow(i int, m *Matrix) {
	n := a.cols
	row := m.Row(i)
	slots := a.slots[i*n : (i+1)*n]

	sup := a.supScratch[:0]
	for j, v := range row {
		if v != 0 {
			sup = append(sup, int32(j))
		}
	}
	// The support-only sum adds the same nonzero terms in the same order
	// as a full-row sum (zeros contribute exactly 0), so total is
	// bit-identical either way.
	total := 0.0
	for _, c := range sup {
		total += row[c]
	}
	a.total[i] = total
	if total <= 0 {
		// Degenerate row: samplers detect this via RowTotal and fall back
		// to a uniform draw, but keep the table well-formed regardless.
		for j := 0; j < n; j++ {
			slots[j] = aliasSlot{thresh: math.MaxUint64, col: int32(j), alias: int32(j)}
		}
		a.supLen[i] = int32(n)
		return
	}

	k := len(sup)
	a.supLen[i] = int32(k)
	scaled := a.scaled[:k]
	small := a.small[:0]
	large := a.large[:0]
	scale := float64(k) / total
	for s, c := range sup {
		scaled[s] = float64(row[c] * scale)
		if scaled[s] < 1 {
			small = append(small, int32(s))
		} else {
			large = append(large, int32(s))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		// scaled[s] is in [0, 1) here, so scaled[s] * 2^64 is exact and
		// below 2^64: the threshold never wraps.
		slots[s] = aliasSlot{thresh: uint64(float64(scaled[s] * 0x1p64)), col: sup[s], alias: sup[l]}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers hold (up to rounding) exactly unit mass: they always accept.
	for _, l := range large {
		slots[l] = aliasSlot{thresh: math.MaxUint64, col: sup[l], alias: sup[l]}
	}
	for _, s := range small {
		slots[s] = aliasSlot{thresh: math.MaxUint64, col: sup[s], alias: sup[s]}
	}
	a.small = small[:0]
	a.large = large[:0]
}

// rowSlots returns the live slots of row i.
func (a *AliasTable) rowSlots(i int) []aliasSlot {
	base := i * a.cols
	return a.slots[base : base+int(a.supLen[i])]
}

// Sample draws one column from row i's distribution using a single 64-bit
// variate (see pick). Zero-weight columns are never returned (their slots
// carry zero acceptance mass and no alias points at them).
func (a *AliasTable) Sample(i int, rng *xrand.RNG) int {
	return pick(a.rowSlots(i), rng.Uint64())
}

// checkShape validates the table against a matrix it is expected to mirror.
func (a *AliasTable) checkShape(m *Matrix) error {
	if a.rows != m.rows || a.cols != m.cols {
		return fmt.Errorf("stochmat: alias table shape %dx%d for matrix %dx%d", a.rows, a.cols, m.rows, m.cols)
	}
	return nil
}
