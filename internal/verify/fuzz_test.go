package verify

import (
	"math"
	"testing"
)

// FuzzExec is the differential fuzz target: for a fuzzer-chosen instance
// and mapping, the production scorer (Evaluator.ExecInto, the one every
// CE draw goes through) must agree bit-identically with the naive
// eqs. (1)-(2) oracle.
func FuzzExec(f *testing.F) {
	f.Add(uint64(1), 8, []byte{0})
	f.Add(uint64(7), 4, []byte{3, 1, 2, 0})
	f.Add(uint64(42), 24, []byte{0xff, 0x10, 7})
	f.Add(uint64(3), 1, []byte{})
	f.Add(uint64(99), 16, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, seed uint64, n int, permBytes []byte) {
		n = 1 + (abs(n) % 32) // clamp to the supported band
		tig, platform, eval := paperInstance(t, seed, n)

		// Lehmer-style decode: permBytes picks from the shrinking free
		// list, so every byte string maps to a valid permutation.
		free := make([]int, n)
		for i := range free {
			free[i] = i
		}
		m := make([]int, n)
		for tsk := 0; tsk < n; tsk++ {
			pick := 0
			if len(permBytes) > 0 {
				pick = int(permBytes[tsk%len(permBytes)]) % len(free)
			}
			m[tsk] = free[pick]
			free = append(free[:pick], free[pick+1:]...)
		}
		if err := CheckPermutation(m); err != nil {
			t.Fatalf("decoder emitted an invalid mapping: %v", err)
		}

		refExec, err := RefExec(tig, platform, m)
		if err != nil {
			t.Fatalf("RefExec: %v", err)
		}
		// A dirty scratch buffer must not leak into the score.
		scratch := make([]float64, n)
		for i := range scratch {
			scratch[i] = math.MaxFloat64
		}
		if got := eval.ExecInto(m, scratch); math.Float64bits(got) != math.Float64bits(refExec) {
			t.Fatalf("ExecInto %v != oracle %v (n=%d seed=%d m=%v)", got, refExec, n, seed, m)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
