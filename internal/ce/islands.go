package ce

import (
	"context"
	"errors"
	"sync"
)

// IslandRun is one island of an island-model ensemble: its problem
// instance (each island owns a private distribution) and its config
// (typically differing only in Seed, Island and the exchange hook).
type IslandRun[S any] struct {
	Problem Problem[S]
	Config  Config
	// ExchangeEvery fires Exchange after the Update step of every
	// ExchangeEvery-th iteration; required positive when Exchange is set.
	ExchangeEvery int
	// Exchange is this island's exchange hook; see ExchangeFunc.
	Exchange ExchangeFunc[S]
	// After, when non-nil, runs in the island's goroutine immediately
	// after its CE loop returns successfully — before RunIslands waits on
	// the other islands. The island orchestration uses it to publish the
	// island's terminal state over the transport, which is what releases
	// peers still blocked at an exchange barrier; deferring that until
	// all goroutines joined would deadlock. An After error fails the
	// ensemble unless ctx was already cancelled (a torn Finish on a
	// cancelled run is expected, and the local result still stands).
	After func(ctx context.Context, res *Result[S]) error
}

// RunIslands executes the runs concurrently under a shared context and
// returns their results, index-aligned with runs. Any island error
// cancels the ensemble; the remaining islands finalise as cancelled runs
// (keeping their incumbents) and the first real error is returned. On a
// nil error every result is populated.
func RunIslands[S any](ctx context.Context, runs []IslandRun[S]) ([]Result[S], error) {
	if len(runs) == 0 {
		return nil, errors.New("ce: island ensemble with no islands")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result[S], len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := runs[g].Config
			cfg.Context = cctx
			res, err := run(runs[g].Problem, cfg, State[S]{}, runs[g].ExchangeEvery, runs[g].Exchange, nil)
			if err == nil && runs[g].After != nil {
				if aerr := runs[g].After(cctx, &res); aerr != nil && cctx.Err() == nil {
					err = aerr
				}
			}
			if err != nil {
				errs[g] = err
				cancel()
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()

	// Prefer a real failure over the context errors the cancellation
	// cascade produces in the other islands.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
