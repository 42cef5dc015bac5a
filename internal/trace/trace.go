// Package trace records solver runs as JSON-lines streams of api.Event —
// the same record the matchd daemon streams over SSE, feeds into its
// /metrics counters and `match -top` renders. Each run emits one
// run-start event, one event per iteration/generation, and one run-end
// event; Read parses a stream back for offline analysis. IterEvent is the
// single conversion from the library's matchsim.IterationTrace callback
// record to the wire record.
//
// The format is line-delimited JSON so streams can be tailed, truncated
// and concatenated safely; a torn final line (a crashed run) is reported
// as such rather than failing the whole replay.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"matchsim"
	"matchsim/api"
)

// IterEvent converts the per-iteration telemetry of a solver callback to
// its wire record, solver-internals block included. It is the one place
// the IterationTrace field set maps onto api.Event.
func IterEvent(tr matchsim.IterationTrace) api.Event {
	return api.Event{
		Kind:          api.KindIteration,
		Iter:          tr.Iteration,
		Gamma:         tr.Gamma,
		Best:          tr.Best,
		Worst:         tr.Worst,
		Mean:          tr.Mean,
		BestSoFar:     tr.BestSoFar,
		Elite:         tr.EliteCount,
		Draws:         tr.Draws,
		RejectTries:   tr.RejectTries,
		FallbackDraws: tr.FallbackDraws,
		SampleNs:      tr.SampleNs,
		SelectNs:      tr.SelectNs,
		UpdateNs:      tr.UpdateNs,
		StealUnits:    tr.StealUnits,
		IdleNs:        tr.IdleNs,
		Island:        tr.Island,
		MigrantsIn:    tr.MigrantsIn,
		MigrantsOut:   tr.MigrantsOut,
		BlendRounds:   tr.BlendRounds,
	}
}

// Writer streams events as JSON lines. It is safe for concurrent use:
// each event is encoded and written under an internal mutex, so multiple
// jobs may interleave whole events on one shared log stream (the matchd
// daemon funnels every job's telemetry through a single Writer).
// A write or flush error is sticky: every subsequent call returns it, and
// Err reports it without side effects — callers that fire-and-forget
// per-iteration events can check once at the end instead of on every emit.
type Writer struct {
	mu  sync.Mutex
	out io.Writer
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewWriter wraps w. If w is an io.Closer, Close closes it.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{out: w, w: bw, enc: json.NewEncoder(bw)}
}

// Emit appends one event atomically with respect to concurrent Emit and
// Flush calls. End events flush through to the underlying writer, so a
// trace file is complete on disk the moment each run finishes even if the
// process later dies without Close.
func (t *Writer) Emit(e api.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if err := t.enc.Encode(e); err != nil {
		t.err = err
		return err
	}
	if e.Kind == api.KindEnd {
		if err := t.w.Flush(); err != nil {
			t.err = err
			return err
		}
	}
	return nil
}

// Start emits a run-start event.
func (t *Writer) Start(solver string, tasks int, seed uint64) error {
	return t.Emit(api.Event{Kind: api.KindStart, Solver: solver, Tasks: tasks, Seed: seed})
}

// Iteration emits one iteration event; e.Kind is forced to
// api.KindIteration.
func (t *Writer) Iteration(e api.Event) error {
	e.Kind = api.KindIteration
	return t.Emit(e)
}

// End emits a run-end event and flushes it through.
func (t *Writer) End(exec float64, iterations int, evaluations int64, mappingTime time.Duration, stopReason string) error {
	return t.Emit(api.Event{
		Kind: api.KindEnd, Exec: exec, Iterations: iterations,
		Evaluations: evaluations, MappingTime: mappingTime, StopReason: stopReason,
	})
}

// Flush writes buffered events through to the underlying writer.
func (t *Writer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if err := t.w.Flush(); err != nil {
		t.err = err
	}
	return t.err
}

// Err reports the writer's sticky error: the first write, flush or close
// failure, if any.
func (t *Writer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close flushes buffered events and closes the underlying writer when it
// is an io.Closer. It returns the writer's first error — including
// earlier emit failures — so a single deferred Close surfaces any data
// loss over the writer's whole life.
func (t *Writer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if c, ok := t.out.(io.Closer); ok {
		if err := c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Run is one replayed run.
type Run struct {
	Start      api.Event
	Iterations []api.Event
	End        *api.Event // nil when the stream ended mid-run (crash)
}

// Read replays a trace stream into runs. A truncated or torn final line
// terminates parsing without error; malformed lines elsewhere fail.
func Read(r io.Reader) ([]Run, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var runs []Run
	var current *Run
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var e api.Event
		if err := json.Unmarshal(line, &e); err != nil {
			// A torn final line is tolerated; mid-stream corruption is not.
			if !scanner.Scan() {
				break
			}
			return nil, fmt.Errorf("trace: malformed event at line %d: %w", lineNo, err)
		}
		// A line that parses but carries impossible values (negative
		// iteration, non-finite cost) is corruption, not a torn write —
		// reject it even at end of stream.
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("trace: invalid event at line %d: %w", lineNo, err)
		}
		switch e.Kind {
		case api.KindStart:
			if current != nil {
				// Previous run never ended (crash); keep it with End nil.
				runs = append(runs, *current)
			}
			current = &Run{Start: e}
		case api.KindIteration:
			if current == nil {
				return nil, fmt.Errorf("trace: iteration event before any start at line %d", lineNo)
			}
			current.Iterations = append(current.Iterations, e)
		case api.KindEnd:
			if current == nil {
				return nil, fmt.Errorf("trace: end event before any start at line %d", lineNo)
			}
			end := e
			current.End = &end
			runs = append(runs, *current)
			current = nil
		default:
			return nil, fmt.Errorf("trace: unknown event kind %q at line %d", e.Kind, lineNo)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if current != nil {
		runs = append(runs, *current)
	}
	return runs, nil
}
