// Island-model MaTCH: I independent CE searches over private stochastic
// matrices, each drawing SampleSize/I mappings per iteration from RNG
// streams keyed (seed, island, iter, unit), exchanging state every
// MigrateEvery iterations over an island.Transport — elite-mapping
// migration folded in through one extra eq. (13) step, and/or convex
// P-row blending (a convex combination of row-stochastic rows is again
// row-stochastic, so blending preserves the distribution invariants).
// Exchanges are bulk-synchronous and peers are folded in ascending
// island order, so the whole ensemble is bit-reproducible per (seed,
// topology, island count) regardless of worker counts or scheduling —
// including across cooperating matchd nodes, where packets travel as
// JSON (float64 survives Go's JSON round-trip exactly).
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"matchsim/internal/ce"
	"matchsim/internal/cost"
	"matchsim/internal/island"
	"matchsim/internal/xrand"
)

// IslandOptions configures an island-model run; see Options.Islands.
type IslandOptions struct {
	// Count is the total number of islands, across all nodes in a
	// cooperative run. Count <= 1 disables island mode.
	Count int
	// Topology is the exchange graph: "ring" (default) or "all".
	Topology string
	// MigrateEvery is the exchange period k in iterations; default 10.
	MigrateEvery int
	// MigrantCount is how many elite mappings each island publishes per
	// exchange (best first). 0 takes the default 4; negative disables
	// migration (blend-only runs).
	MigrantCount int
	// BlendAlpha in [0, 1) is the convex P-row blending weight: each row
	// becomes (1-alpha)*own + alpha*mean(peer rows). 0 disables blending.
	BlendAlpha float64
	// Transport moves exchange packets; nil runs all islands in-process
	// over a private in-memory board.
	Transport island.Transport
	// Remote, when non-nil, has Count entries and marks islands that run
	// on other nodes (this process solves only the false ones). Requires
	// an explicit Transport wired to the cooperating nodes.
	Remote []bool
}

func (o IslandOptions) withDefaults() IslandOptions {
	if o.Topology == "" {
		o.Topology = string(island.Ring)
	}
	if o.MigrateEvery == 0 {
		o.MigrateEvery = 10
	}
	if o.MigrantCount == 0 {
		o.MigrantCount = 4
	}
	return o
}

func (o IslandOptions) validate() error {
	if _, err := island.ParseTopology(o.Topology); err != nil {
		return err
	}
	if o.MigrateEvery < 1 {
		return fmt.Errorf("core: migration interval %d < 1", o.MigrateEvery)
	}
	if o.BlendAlpha < 0 || o.BlendAlpha >= 1 {
		return fmt.Errorf("core: blend alpha %v outside [0, 1)", o.BlendAlpha)
	}
	if o.MigrantCount < 0 && o.BlendAlpha == 0 {
		return fmt.Errorf("core: islands with neither migration nor blending would never exchange anything")
	}
	if o.Remote != nil {
		if len(o.Remote) != o.Count {
			return fmt.Errorf("core: %d remote flags for %d islands", len(o.Remote), o.Count)
		}
		local := 0
		for _, r := range o.Remote {
			if !r {
				local++
			}
		}
		if local == 0 {
			return fmt.Errorf("core: no island is local to this node")
		}
		if local < o.Count && o.Transport == nil {
			return fmt.Errorf("core: remote islands need an explicit transport")
		}
	}
	return nil
}

// exportRows returns a deep copy of the current stochastic matrix, the
// payload of a blending exchange.
func (pr *problem) exportRows() [][]float64 {
	rows := make([][]float64, pr.n)
	for i := range rows {
		rows[i] = slices.Clone(pr.p.Row(i))
	}
	return rows
}

// injectElite folds immigrant mappings into P with one extra eq. (13)
// step: q_ij = fraction of migrants mapping i->j, P <- zeta*Q +
// (1-zeta)*P — exactly the composition the local elite update uses, so
// migration stays within the algorithm's semantics.
func (pr *problem) injectElite(migrants [][]int, zeta float64) error {
	if len(migrants) == 0 {
		return nil
	}
	for _, m := range migrants {
		if len(m) != pr.n {
			return fmt.Errorf("core: migrant of length %d for %d tasks", len(m), pr.n)
		}
		if !cost.Mapping(m).IsPermutation() {
			return fmt.Errorf("core: migrant %v is not a permutation", m)
		}
	}
	if err := pr.p.SmoothElite(migrants, pr.counts, zeta); err != nil {
		return fmt.Errorf("core: migrant injection: %w", err)
	}
	pr.alias.Rebuild(pr.p)
	return nil
}

// blendRows replaces each P row with the convex combination
// (1-alpha)*own + (alpha/len(peers))*sum(peer rows). peers must be in a
// deterministic (ascending island) order — float addition is not
// associative, and cross-node bit-identity rides on the order.
func (pr *problem) blendRows(peers [][][]float64, alpha float64) error {
	if len(peers) == 0 {
		return nil
	}
	for g, rows := range peers {
		if len(rows) != pr.n {
			return fmt.Errorf("core: blend peer %d has %d rows, want %d", g, len(rows), pr.n)
		}
	}
	w := alpha / float64(len(peers))
	buf := make([]float64, pr.n)
	for i := 0; i < pr.n; i++ {
		own := pr.p.Row(i)
		for j := range buf {
			acc := 0.0
			for _, rows := range peers {
				acc += rows[i][j]
			}
			// Each product rounded on its own, as in stochmat.Smooth:
			// no fused multiply-add on FMA-capable architectures.
			buf[j] = float64((1-alpha)*own[j]) + float64(w*acc)
		}
		if err := pr.p.SetRow(i, buf); err != nil {
			return fmt.Errorf("core: blend row %d: %w", i, err)
		}
	}
	pr.alias.Rebuild(pr.p)
	return nil
}

// solveIslands runs the island-model ensemble. Routed from Solve when
// Options.Islands.Count > 1.
func solveIslands(eval *cost.Evaluator, opts Options) (*Result, error) {
	iopts := opts.Islands.withDefaults()
	if err := iopts.validate(); err != nil {
		return nil, err
	}
	if opts.SnapshotEvery > 0 {
		return nil, fmt.Errorf("core: matrix snapshots are not supported in island mode (each island has its own matrix)")
	}
	n := eval.NumTasks()
	opts = opts.withDefaults(n)
	count := iopts.Count

	// Split the paper's N = 2n^2 budget evenly: each island draws
	// ceil(N/I) mappings per iteration, so the ensemble's total draw
	// budget per iteration matches the single-island run.
	perIsland := (opts.SampleSize + count - 1) / count

	tr := iopts.Transport
	if tr == nil {
		var err error
		topo, _ := island.ParseTopology(iopts.Topology)
		tr, err = island.NewMemTransport(count, topo)
		if err != nil {
			return nil, err
		}
	}

	var locals []int
	for g := 0; g < count; g++ {
		if iopts.Remote == nil || !iopts.Remote[g] {
			locals = append(locals, g)
		}
	}

	var (
		mu     sync.Mutex
		finals []island.Packet // terminal packets of all count islands
		onIter = opts.OnIteration
	)
	forward := func(st ce.IterStats) {
		if onIter == nil {
			return
		}
		mu.Lock()
		onIter(st)
		mu.Unlock()
	}

	runs := make([]ce.IslandRun, len(locals))
	for li, g := range locals {
		pr := newProblem(eval, opts, true)
		if opts.WarmStart != nil {
			if err := pr.applyWarmStart(opts.WarmStart); err != nil {
				return nil, err
			}
		}
		cfg := opts.ceConfig()
		cfg.SampleSize = perIsland
		cfg.Seed = xrand.SeedKeyed(opts.Seed, uint64(g))
		cfg.OnIteration = forward
		cfg.Island = g
		runs[li] = ce.IslandRun{
			Problem:       pr,
			ExchangeEvery: iopts.MigrateEvery,
			Exchange:      islandExchange(pr, g, tr, iopts, opts.Zeta),
			After: func(ctx context.Context, res *ce.Result) error {
				pkt := island.Packet{Island: g, Round: res.Iterations / iopts.MigrateEvery}
				pkt.Best = &island.Migrant{Mapping: slices.Clone(res.Best), Exec: res.BestScore}
				fs, err := tr.Finish(ctx, pkt)
				if err != nil {
					return err
				}
				mu.Lock()
				if finals == nil {
					finals = fs
				}
				mu.Unlock()
				return nil
			},
			Config: cfg,
		}
	}

	start := time.Now()
	results, err := ce.RunIslands(opts.Context, runs)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	res := &Result{
		MappingTime: elapsed,
		Islands:     count,
	}
	// Merge local histories into one stream ordered by (iteration,
	// island) — deterministic, and what the telemetry layer fans out.
	for _, r := range results {
		res.History = append(res.History, r.History...)
		res.Evaluations += r.Evaluations
		if r.Iterations > res.Iterations {
			res.Iterations = r.Iterations
		}
	}
	sort.SliceStable(res.History, func(a, b int) bool {
		if res.History[a].Iter != res.History[b].Iter {
			return res.History[a].Iter < res.History[b].Iter
		}
		return res.History[a].Island < res.History[b].Island
	})

	// Global best: the minimum over all islands' terminal packets, ties
	// to the lowest island index — computed from the same count packets
	// on every cooperating node, so all nodes report the identical
	// mapping. A cancelled run may have no complete packet set; fall
	// back to reducing the local results (in-memory runs lose nothing:
	// all islands are local).
	bestExec := 0.0
	var bestMapping []int
	pick := func(m []int, exec float64) {
		if bestMapping == nil || exec < bestExec {
			bestMapping, bestExec = m, exec
		}
	}
	mu.Lock()
	fs := finals
	mu.Unlock()
	if len(fs) == count {
		for _, pkt := range fs {
			if pkt.Best != nil {
				pick(pkt.Best.Mapping, pkt.Best.Exec)
			}
		}
	}
	if bestMapping == nil {
		for _, r := range results {
			pick(r.Best, r.BestScore)
		}
	}
	if bestMapping == nil {
		return nil, fmt.Errorf("core: island run produced no result")
	}
	res.Mapping = slices.Clone(cost.Mapping(bestMapping))
	res.Exec = bestExec
	if !res.Mapping.IsPermutation() {
		return nil, fmt.Errorf("core: internal error — island best mapping is not a permutation: %v", res.Mapping)
	}

	// Stop reason: cancellation wins; otherwise report the reason of the
	// best local island (lowest index on ties, matching the reduction).
	res.StopReason = ""
	bestLocal := -1
	for li, r := range results {
		if r.StopReason == ce.StopCancelled {
			res.StopReason = ce.StopCancelled
		}
		if bestLocal < 0 || r.BestScore < results[bestLocal].BestScore {
			bestLocal = li
		}
	}
	if res.StopReason == "" {
		res.StopReason = results[bestLocal].StopReason
	}

	// The ensemble has no single final matrix and is not checkpointable;
	// FinalMatrix stays nil (like multilevel runs).
	if opts.Polish && res.StopReason != ce.StopCancelled {
		if err := polish(eval, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// islandExchange builds island g's exchange hook: publish the top
// MigrantCount elite (and, when blending, the full P), block for the
// peers' round packets, then fold immigrants and peer rows in.
func islandExchange(pr *problem, g int, tr island.Transport, iopts IslandOptions, zeta float64) ce.ExchangeFunc {
	if zeta == 0 {
		zeta = 0.3 // mirror Options.withDefaults; injection reuses eq. (13)'s zeta
	}
	return func(ctx context.Context, iter int, elite [][]int, scores []float64) (ce.ExchangeResult, error) {
		var out ce.ExchangeResult
		pkt := island.Packet{Island: g, Round: iter / iopts.MigrateEvery}
		if iopts.MigrantCount > 0 {
			mc := iopts.MigrantCount
			if mc > len(elite) {
				mc = len(elite)
			}
			pkt.Migrants = make([]island.Migrant, mc)
			for i := 0; i < mc; i++ {
				pkt.Migrants[i] = island.Migrant{Mapping: slices.Clone(elite[i]), Exec: scores[i]}
			}
		}
		if iopts.BlendAlpha > 0 {
			pkt.Rows = pr.exportRows()
		}
		peers, err := tr.Exchange(ctx, pkt)
		if err != nil {
			return out, err
		}
		// Peers arrive in ascending island order (transport contract);
		// fold them in exactly that order everywhere.
		var migrants [][]int
		var blendPeers [][][]float64
		for _, p := range peers {
			for _, m := range p.Migrants {
				migrants = append(migrants, m.Mapping)
				out.InScores = append(out.InScores, m.Exec)
			}
			if p.Done && p.Best != nil {
				// A finished peer contributes its final best in place of
				// fresh elites, keeping its discovery in circulation.
				migrants = append(migrants, p.Best.Mapping)
				out.InScores = append(out.InScores, p.Best.Exec)
			}
			if len(p.Rows) > 0 {
				blendPeers = append(blendPeers, p.Rows)
			}
		}
		if len(migrants) > 0 {
			if err := pr.injectElite(migrants, zeta); err != nil {
				return out, err
			}
		}
		if len(blendPeers) > 0 {
			if err := pr.blendRows(blendPeers, iopts.BlendAlpha); err != nil {
				return out, err
			}
			out.BlendRounds = 1
		}
		out.In = migrants
		out.Out = len(pkt.Migrants)
		return out, nil
	}
}
