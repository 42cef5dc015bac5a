package verify

import (
	"fmt"
	"math"

	"matchsim/internal/stochmat"
)

// CheckBlend verifies an island-model P-row blend against an independent
// recomputation: each blended row must equal, bit for bit, the convex
// combination (1-alpha)*own + (alpha/P)*sum(peer rows) — evaluated with
// the same two explicit roundings the production code uses (no fused
// multiply-add), peers folded left to right in the given order, and the
// result passed through SetRow's normalise-by-total — and the blended
// matrix must still be row-stochastic. own and peers are the pre-blend
// inputs; blended is the matrix after core's blendRows applied them.
//
// A convex combination of row-stochastic rows sums to one up to rounding,
// so the normalisation divides by a total within a few ulps of 1.0; the
// checker recomputes that division too rather than assuming it away.
func CheckBlend(own [][]float64, peers [][][]float64, alpha float64, blended *stochmat.Matrix) error {
	if blended == nil {
		return fmt.Errorf("verify: nil blended matrix")
	}
	if alpha < 0 || alpha >= 1 {
		return fmt.Errorf("verify: blend alpha %v outside [0, 1)", alpha)
	}
	n := blended.Rows()
	if len(own) != n {
		return fmt.Errorf("verify: %d own rows for a %d-row matrix", len(own), n)
	}
	if len(peers) == 0 {
		return fmt.Errorf("verify: blend with no peers")
	}
	for g, rows := range peers {
		if len(rows) != n {
			return fmt.Errorf("verify: blend peer %d has %d rows, want %d", g, len(rows), n)
		}
	}
	if err := CheckRowStochastic(blended, 1e-9); err != nil {
		return err
	}
	cols := blended.Cols()
	w := alpha / float64(len(peers))
	want := make([]float64, cols)
	for i := 0; i < n; i++ {
		if len(own[i]) != cols {
			return fmt.Errorf("verify: own row %d has %d entries, want %d", i, len(own[i]), cols)
		}
		total := 0.0
		for j := 0; j < cols; j++ {
			acc := 0.0
			for _, rows := range peers {
				acc += rows[i][j]
			}
			// The exact expression of core's blendRows: each product
			// rounded on its own, then the sum.
			want[j] = float64((1-alpha)*own[i][j]) + float64(w*acc)
			total += want[j]
		}
		if total <= 0 {
			return fmt.Errorf("verify: blended row %d has zero mass", i)
		}
		got := blended.Row(i)
		for j := 0; j < cols; j++ {
			if nv := want[j] / total; math.Float64bits(got[j]) != math.Float64bits(nv) {
				return fmt.Errorf("verify: blended row %d col %d = %v, recomputation gives %v",
					i, j, got[j], nv)
			}
		}
	}
	return nil
}

// CheckInjection verifies an elite-migration injection against an
// independent recomputation of its eq. (11) + eq. (13) composition: the
// migrant frequency matrix q_ij = (#migrants mapping i to j)/M (built by
// accumulating 1/M per migrant in migrant order, then normalised by the
// row total), smoothed into the prior as zeta*q + (1-zeta)*prior with
// each product rounded on its own, as stochmat.SmoothElite does. Every
// migrant must be a valid permutation and the updated matrix must remain
// row-stochastic. prior is the matrix before the exchange; updated is the
// matrix after core's injectElite applied the migrants.
func CheckInjection(prior [][]float64, migrants [][]int, zeta float64, updated *stochmat.Matrix) error {
	if updated == nil {
		return fmt.Errorf("verify: nil updated matrix")
	}
	if zeta < 0 || zeta > 1 {
		return fmt.Errorf("verify: injection zeta %v outside [0, 1]", zeta)
	}
	if len(migrants) == 0 {
		return fmt.Errorf("verify: injection with no migrants")
	}
	n := updated.Rows()
	cols := updated.Cols()
	if len(prior) != n {
		return fmt.Errorf("verify: %d prior rows for a %d-row matrix", len(prior), n)
	}
	for _, m := range migrants {
		if len(m) != n {
			return fmt.Errorf("verify: migrant of length %d for %d tasks", len(m), n)
		}
		if err := CheckPermutation(m); err != nil {
			return fmt.Errorf("verify: invalid migrant: %w", err)
		}
	}
	if err := CheckRowStochastic(updated, 1e-9); err != nil {
		return err
	}
	// Migrant frequencies, accumulated exactly as the production code
	// does: 1/M added per migrant in order (the sum is order-sensitive in
	// floating point only when it matters not at all here — every row
	// total is the same left-to-right sum the SetRow normalisation saw).
	counts := make([]float64, n*cols)
	inv := 1 / float64(len(migrants))
	for _, m := range migrants {
		for task, res := range m {
			counts[task*cols+res] += inv
		}
	}
	for i := 0; i < n; i++ {
		if len(prior[i]) != cols {
			return fmt.Errorf("verify: prior row %d has %d entries, want %d", i, len(prior[i]), cols)
		}
		row := counts[i*cols : (i+1)*cols]
		total := 0.0
		for _, v := range row {
			total += v
		}
		if total <= 0 {
			return fmt.Errorf("verify: migrant frequency row %d has zero mass", i)
		}
		got := updated.Row(i)
		for j := 0; j < cols; j++ {
			q := row[j] / total
			// stochmat.Smooth's exact expression.
			if v := float64(zeta*q) + float64((1-zeta)*prior[i][j]); math.Float64bits(got[j]) != math.Float64bits(v) {
				return fmt.Errorf("verify: injected row %d col %d = %v, recomputation gives %v",
					i, j, got[j], v)
			}
		}
	}
	return nil
}
