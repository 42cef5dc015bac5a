package cost

import "math"

// LowerBound returns a provable lower bound on Exec(M) over all bijective
// mappings, enabling optimality-gap reporting for the heuristics. It is
// the maximum of three relaxations:
//
//  1. Work bound: even if load were perfectly divisible, the busiest
//     resource carries at least (sum of all per-task best-case compute)
//     divided by the resource count... more precisely, assigning every
//     task its cheapest resource cannot beat the average:
//     LB1 = (sum_t W^t * min_s w_s applied per-task best) / |Vr|.
//  2. Compute-assignment bound: in a bijective mapping some task must
//     take each resource; the busiest resource is at least the best
//     achievable maximum of the per-task compute times under the optimal
//     assignment, relaxed here to max over tasks of their *cheapest*
//     compute time: LB2 = max_t min_s W^t * w_s.
//  3. Edge bound: for any TIG edge (t, a), the two endpoints live on
//     distinct resources (bijective mapping, n > 1), so each endpoint's
//     resource pays at least C^{t,a} * min-positive link cost, plus the
//     endpoint's own cheapest compute:
//     LB3 = max_{(t,a)} [ C^{t,a} * c_min + max(min_s Tcp[t][s], min_s Tcp[a][s]) ].
//
// All three are valid for every bijective mapping; the returned value is
// their maximum. For non-bijective (many-to-one) mappings only LB1 and
// LB2 remain valid with co-location allowed, so ManyToOneLowerBound
// exposes the weaker pair.
func LowerBound(e *Evaluator) float64 {
	if e.n == 0 {
		return 0
	}
	lb1 := 0.0 // total cheapest compute spread perfectly
	lb2 := 0.0 // heaviest task on its cheapest resource
	minCompute := perTaskMinCompute(e)
	for _, best := range minCompute {
		lb1 += best
		if best > lb2 {
			lb2 = best
		}
	}
	lb1 /= float64(e.r)

	lb3 := 0.0
	if e.n > 1 {
		cMin := math.Inf(1)
		for s := 0; s < e.r; s++ {
			for b := 0; b < e.r; b++ {
				if s == b {
					continue
				}
				if v := e.links.Cost(s, b); v < cMin {
					cMin = v
				}
			}
		}
		if !math.IsInf(cMin, 1) {
			for _, edge := range e.tig.Edges() {
				endpointFloor := math.Max(minCompute[edge.U], minCompute[edge.V])
				if v := float64(edge.Weight*cMin) + endpointFloor; v > lb3 {
					lb3 = v
				}
			}
		}
	}
	return math.Max(lb1, math.Max(lb2, lb3))
}

// perTaskMinCompute returns min_s Tcp[t][s] for every task t — the
// cheapest possible compute charge each task adds to *some* resource under
// any mapping. It is the per-task floor all three LowerBound relaxations
// build on.
func perTaskMinCompute(e *Evaluator) []float64 {
	minCompute := make([]float64, e.n)
	for t := 0; t < e.n; t++ {
		best := math.Inf(1)
		for s := 0; s < e.r; s++ {
			if v := e.ComputeTime(t, s); v < best {
				best = v
			}
		}
		minCompute[t] = best
	}
	return minCompute
}

// ManyToOneLowerBound returns a lower bound valid when several tasks may
// share a resource (communication can be fully internalised, so only the
// compute relaxations survive).
func ManyToOneLowerBound(e *Evaluator) float64 {
	if e.n == 0 {
		return 0
	}
	lb1 := 0.0
	lb2 := 0.0
	for _, best := range perTaskMinCompute(e) {
		lb1 += best
		if best > lb2 {
			lb2 = best
		}
	}
	lb1 /= float64(e.r)
	return math.Max(lb1, lb2)
}
