// matchtop: a live convergence view over a running (or recorded) solver.
// `match -top -job ID [-daemon URL]` follows a matchd job's SSE stream;
// `match -top -tail FILE` follows a JSONL trace file, tail -f style. Both
// feed the same model: a one-screen summary of the CE run's trajectory —
// best/gamma sparklines, elite and pruning effectiveness, sampler
// counters and phase timings — redrawn in place on a TTY.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"matchsim/api"
	"matchsim/client"
)

// topModel folds a stream of trace-schema events into the latest view
// state. It is transport-agnostic: SSE payloads and trace-file lines are
// the same JSON document.
type topModel struct {
	solver string
	tasks  int
	seed   uint64

	iter      api.Event // latest iteration event
	iters     int       // iteration events seen
	bestHist  []float64 // BestSoFar per iteration, for the sparkline
	gammaHist []float64
	end       *api.Event

	// Island-model view state: per-island best-so-far plus cumulative
	// exchange activity. The islands line renders only when the stream
	// carries more than one island.
	islandBest  map[int]float64
	migrantsIn  int
	migrantsOut int
	blendRounds int
}

func (m *topModel) observe(e api.Event) {
	switch e.Kind {
	case api.KindStart:
		// A new run on the same stream (resume, shared daemon trace file)
		// resets the view.
		*m = topModel{solver: e.Solver, tasks: e.Tasks, seed: e.Seed}
	case api.KindIteration:
		m.iter = e
		m.iters++
		m.bestHist = append(m.bestHist, e.BestSoFar)
		m.gammaHist = append(m.gammaHist, e.Gamma)
		if m.islandBest == nil {
			m.islandBest = make(map[int]float64)
		}
		m.islandBest[e.Island] = e.BestSoFar
		m.migrantsIn += e.MigrantsIn
		m.migrantsOut += e.MigrantsOut
		m.blendRounds += e.BlendRounds
	case api.KindEnd:
		end := e
		m.end = &end
	}
}

// sparkRunes are the classic eighth-block ramp.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last `width` values scaled to the block ramp.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := len(sparkRunes) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// render produces one full frame.
func (m *topModel) render() string {
	var sb strings.Builder
	state := "waiting"
	if m.iters > 0 {
		state = "running"
	}
	if m.end != nil {
		state = "finished"
	}
	fmt.Fprintf(&sb, "matchtop  %-14s tasks=%-5d seed=%-8d [%s]\n",
		m.solver, m.tasks, m.seed, state)

	e := m.iter
	if m.iters > 0 {
		fmt.Fprintf(&sb, "iter %-6d best %-12.4g best-so-far %-12.4g gamma %-12.4g elite %d/%d\n",
			e.Iter, e.Best, e.BestSoFar, e.Gamma, e.Elite, e.Draws)
		fmt.Fprintf(&sb, "best-so-far %s\n", sparkline(m.bestHist, 60))
		fmt.Fprintf(&sb, "gamma       %s\n", sparkline(m.gammaHist, 60))
		if e.Draws > 0 {
			fmt.Fprintf(&sb, "sampler reject %.2f/draw   fallback %.2f%%\n",
				float64(e.RejectTries)/float64(e.Draws),
				100*float64(e.FallbackDraws)/float64(e.Draws))
		}
		if e.SampleNs > 0 {
			fmt.Fprintf(&sb, "phases  sample %-10s select %-10s update %-10s steals %-4d idle %s\n",
				time.Duration(e.SampleNs).Round(time.Microsecond),
				time.Duration(e.SelectNs).Round(time.Microsecond),
				time.Duration(e.UpdateNs).Round(time.Microsecond),
				e.StealUnits,
				time.Duration(e.IdleNs).Round(time.Microsecond))
		}
		if len(m.islandBest) > 1 {
			best, bestIsland := 0.0, -1
			for g, v := range m.islandBest {
				if bestIsland < 0 || v < best || (v == best && g < bestIsland) {
					best, bestIsland = v, g
				}
			}
			fmt.Fprintf(&sb, "islands %-4d migrants in/out %d/%d   blends %-6d leader island %d (%.4g)\n",
				len(m.islandBest), m.migrantsIn, m.migrantsOut, m.blendRounds, bestIsland, best)
		}
	}
	if m.end != nil {
		fmt.Fprintf(&sb, "done: exec %.4g after %d iteration(s), %d evaluations in %v (%s)\n",
			m.end.Exec, m.end.Iterations, m.end.Evaluations,
			time.Duration(m.end.MappingTime).Round(time.Millisecond), m.end.StopReason)
	}
	return sb.String()
}

// frameWriter redraws frames in place on a TTY and appends them on a
// plain stream (pipes, tests).
type frameWriter struct {
	out       io.Writer
	tty       bool
	prevLines int
}

func newFrameWriter(out *os.File) *frameWriter {
	fi, err := out.Stat()
	tty := err == nil && fi.Mode()&os.ModeCharDevice != 0
	return &frameWriter{out: out, tty: tty}
}

func (fw *frameWriter) draw(frame string) {
	if fw.tty && fw.prevLines > 0 {
		// Cursor up over the previous frame, then clear to end of screen.
		fmt.Fprintf(fw.out, "\x1b[%dA\x1b[J", fw.prevLines)
	}
	io.WriteString(fw.out, frame)
	if !fw.tty {
		io.WriteString(fw.out, "\n")
	}
	fw.prevLines = strings.Count(frame, "\n")
}

// runTop drives the matchtop view per cfg: SSE mode when -job is set,
// trace-tail mode when -tail is set.
func runTop(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	model := &topModel{}
	fw := newFrameWriter(os.Stdout)

	// Rate-limit redraws: solver iterations can arrive far faster than a
	// terminal usefully repaints. Terminal frames are cheap but not free.
	var lastDraw time.Time
	draw := func(force bool) {
		if !force && time.Since(lastDraw) < 100*time.Millisecond {
			return
		}
		lastDraw = time.Now()
		fw.draw(model.render())
	}

	switch {
	case cfg.topJob != "":
		c := client.New(cfg.daemon)
		w, err := c.WatchJob(ctx, cfg.topJob)
		if err != nil {
			return err
		}
		defer w.Close()
		for e, ok := w.Next(); ok; e, ok = w.Next() {
			model.observe(e)
			draw(e.Kind != api.KindIteration)
		}
		draw(true)
		return w.Err()
	case cfg.tailFile != "":
		return tailTrace(ctx, cfg.tailFile, model, draw)
	default:
		return fmt.Errorf("-top needs -job ID (SSE mode) or -tail FILE (trace mode)")
	}
}

// tailTrace follows a JSONL trace file tail -f style: existing events are
// replayed, then the file is polled for growth until the run's end event
// arrives or ctx is cancelled. A torn final line (a write in progress) is
// retried on the next poll.
func tailTrace(ctx context.Context, path string, model *topModel, draw func(bool)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var buf []byte
	chunk := make([]byte, 64*1024)
	for {
		n, readErr := f.Read(chunk)
		buf = append(buf, chunk[:n]...)
		for {
			nl := strings.IndexByte(string(buf), '\n')
			if nl < 0 {
				break
			}
			line := strings.TrimSpace(string(buf[:nl]))
			buf = buf[nl+1:]
			if line == "" {
				continue
			}
			// Corrupt values (negative iterations, non-finite costs) are
			// rejected with a clear error instead of garbling the view.
			var e api.Event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				return fmt.Errorf("malformed trace line: %w", err)
			}
			if err := e.Validate(); err != nil {
				return fmt.Errorf("invalid trace line: %w", err)
			}
			model.observe(e)
			draw(e.Kind != api.KindIteration)
			if e.Kind == api.KindEnd {
				draw(true)
				return nil
			}
		}
		if readErr == io.EOF {
			select {
			case <-ctx.Done():
				draw(true)
				return nil
			case <-time.After(200 * time.Millisecond):
			}
		} else if readErr != nil {
			return readErr
		}
	}
}
