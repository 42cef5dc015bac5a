// Package verify is the repo's correctness substrate: an independent
// reference oracle for the paper's cost model, invariant checkers usable
// from any test, metamorphic instance transformations, and a
// deterministic fault-injection simulator for the matchd job manager.
//
// The production kernels (cost.Evaluator, cost.State, the alias-table
// GenPerm sampler) are heavily optimised — packed branch-free edge sweeps,
// epoch-stamped swap deltas, O(1) rejection draws with a compact
// fallback. Every one of them promises the plain semantics of the paper.
// This package re-derives those semantics as naively as possible and
// never shares code with the optimised paths, so a bug in the clever code
// cannot hide in the oracle too:
//
//   - RefLoads / RefExec (oracle.go) walk tig.Edges() and call
//     platform.LinkCost per edge — no adjacency build, no packing, no
//     incremental state.
//   - RefExecAfterSwap copies the mapping, swaps, and fully rescores.
//   - RefSamplePermutation (genperm.go) is GenPerm (Fig. 4) as a linear
//     masked roulette walk — the reference the alias sampler's
//     distribution tests compare against.
//
// On integer-weighted instances (gen.PaperInstance emits integral
// weights) every partial sum is exactly representable in float64, so the
// oracle must agree *bit-identically* with every production path
// regardless of summation order. Float-weighted instances are compared
// within a small relative tolerance.
//
// Invariant checkers (invariants.go) return errors rather than calling
// testing.T directly so fuzz targets and the fault sim can reuse them:
//
//   - CheckPermutation: a sampled mapping is a valid permutation.
//   - CheckRowStochastic: P remains row-stochastic (after every Update —
//     drive core.Solve with SnapshotEvery: 1 and check each snapshot).
//   - CheckAliasRow: a stochmat.AliasTable row reproduces the matrix row
//     distribution (chi-square goodness of fit via stats.ChiSquareSurvival).
//   - CheckEliteSelection: a streamed ce.Elite holds exactly the k best
//     draws, best first, and gamma bounds the rest.
//   - CheckHistory: per-iteration search invariants — finite summaries,
//     Best <= Gamma <= Worst and Best <= Mean <= Worst, and BestSoFar is
//     non-increasing, which is the run-level form of
//     "gamma never regresses past the incumbent under elite selection".
//     (Raw gamma_k may rise between iterations; see the note in
//     internal/ce/ce.go.)
//
// Metamorphic transformations (metamorphic.go) build transformed
// instances whose Exec relates predictably to the original:
//
//   - Relabel: conjugating tasks and resources by permutations preserves
//     Exec of the conjugated mapping exactly.
//   - ScaleWeights: scaling all W^t and C^{i,j} by alpha scales every
//     Exec_s — and hence Exec — by alpha (bit-exact for powers of two).
//   - AddZeroEdges: zero-weight TIG edges never change any Exec.
//
// Fuzzing: the repo's native Go fuzz targets live next to the code they
// exercise — FuzzExec (this package, differential against the oracle),
// FuzzDecodeCheckpoint (internal/core), FuzzTraceReader (internal/trace),
// FuzzJobSpecJSON (api), plus the pre-existing graph target and
// FuzzSamplePermutation (internal/stochmat, the production sampler under
// CheckPermutation). Run one locally with e.g.
//
//	go test ./internal/verify -run '^$' -fuzz '^FuzzExec$' -fuzztime 30s
//
// Seed corpora are committed under each package's testdata/fuzz
// directory and double as regression tests in plain `go test` runs.
//
// The fault-injection sim (faultsim.go) drives a real jobs.Manager with a
// deterministic, seeded op schedule — submits (with deliberate key
// collisions), cancels, stalled and disconnecting SSE subscribers, a
// too-small queue, a tiny result cache, and SIGTERM-style shutdowns with
// checkpoint persistence and Restore — then asserts no accepted job is
// lost, every cache hit is bit-identical to the first result computed for
// its key, and restored jobs complete under their original IDs.
package verify
