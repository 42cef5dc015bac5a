// Package trace records solver runs as JSON-lines event streams —
// production observability for long mapping jobs. Each run emits one
// run-start event, one event per iteration/generation, and one run-end
// event; the Reader parses a stream back for offline analysis (the
// convergence plots in internal/exp consume either live histories or
// replayed traces).
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
	"math"
	"sync"
	"time"
)

// EventKind discriminates trace events.
type EventKind string

const (
	// KindStart opens a run.
	KindStart EventKind = "start"
	// KindIteration records one CE iteration or GA generation.
	KindIteration EventKind = "iter"
	// KindEnd closes a run.
	KindEnd EventKind = "end"
)

// Event is one trace record. Fields are a union across kinds; unused
// fields are omitted from the wire form — except Seed and Iter, which
// carry legitimate zero values (seed 0 is a valid seed, and resumed runs
// may re-emit iteration 0) and are therefore always present.
type Event struct {
	Kind EventKind `json:"kind"`
	// Run identity (start events).
	Solver string `json:"solver,omitempty"`
	Tasks  int    `json:"tasks,omitempty"`
	Seed   uint64 `json:"seed"`
	// Per-iteration payload.
	Iter      int     `json:"iter"`
	Gamma     float64 `json:"gamma,omitempty"`
	Best      float64 `json:"best,omitempty"`
	Worst     float64 `json:"worst,omitempty"`
	Mean      float64 `json:"mean,omitempty"`
	BestSoFar float64 `json:"best_so_far,omitempty"`
	// Elite is the size of the iteration's elite set.
	Elite int `json:"elite,omitempty"`
	// Solver internals (CE iterations; zero elsewhere). Draws is the
	// samples drawn; RejectTries/FallbackDraws are GenPerm sampler
	// counters; SampleNs/SelectNs/UpdateNs are phase timings; StealUnits
	// and IdleNs describe the worker pool's barrier behaviour. Traces
	// written by older builds may also carry pruned, rescored and
	// skipped_edges; Reader ignores them.
	Draws         int    `json:"draws,omitempty"`
	RejectTries   uint64 `json:"reject_tries,omitempty"`
	FallbackDraws uint64 `json:"fallback_draws,omitempty"`
	SampleNs      int64  `json:"sample_ns,omitempty"`
	SelectNs      int64  `json:"select_ns,omitempty"`
	UpdateNs      int64  `json:"update_ns,omitempty"`
	StealUnits    int    `json:"steal_units,omitempty"`
	IdleNs        int64  `json:"idle_ns,omitempty"`
	// RebuiltRows and SkippedRows count the sampling-table rows the
	// iteration's distribution update rebuilt versus skipped as unchanged
	// (sparse-row runs; both zero on the dense path).
	RebuiltRows uint64 `json:"rebuilt_rows,omitempty"`
	SkippedRows uint64 `json:"skipped_rows,omitempty"`
	// Island-model telemetry (island-ensemble runs only): Island labels
	// which island produced this iteration; MigrantsIn/MigrantsOut count
	// elite solutions received/sent in the iteration's exchange round and
	// BlendRounds the P-matrix blend steps applied (zero off exchange
	// rounds and on single-population runs).
	Island      int `json:"island,omitempty"`
	MigrantsIn  int `json:"migrants_in,omitempty"`
	MigrantsOut int `json:"migrants_out,omitempty"`
	BlendRounds int `json:"blend_rounds,omitempty"`
	// Run outcome (end events).
	Exec        float64       `json:"exec,omitempty"`
	Iterations  int           `json:"iterations,omitempty"`
	Evaluations int64         `json:"evaluations,omitempty"`
	MappingTime time.Duration `json:"mapping_time_ns,omitempty"`
	StopReason  string        `json:"stop_reason,omitempty"`
}

// Validate rejects events no well-formed solver run can produce: unknown
// kinds, non-finite costs (NaN/Inf gamma, best, worst, mean, best-so-far
// or exec) and negative counters or timings. The Writer refuses to emit
// such events with a clear error (json.Marshal would otherwise fail
// cryptically on NaN, or silently encode a negative iteration), and the
// reader rejects them instead of propagating them into consumers such as
// matchtop.
func (e Event) Validate() error {
	switch e.Kind {
	case KindStart, KindIteration, KindEnd:
	case "":
		return fmt.Errorf("trace: event without kind")
	default:
		return fmt.Errorf("trace: unknown event kind %q", e.Kind)
	}
	floats := [...]struct {
		name string
		v    float64
	}{
		{"gamma", e.Gamma}, {"best", e.Best}, {"worst", e.Worst},
		{"mean", e.Mean}, {"best_so_far", e.BestSoFar}, {"exec", e.Exec},
	}
	for _, f := range floats {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: event has non-finite %s (%v)", f.name, f.v)
		}
	}
	ints := [...]struct {
		name string
		v    int64
	}{
		{"tasks", int64(e.Tasks)}, {"iter", int64(e.Iter)}, {"elite", int64(e.Elite)},
		{"draws", int64(e.Draws)},
		{"sample_ns", e.SampleNs}, {"select_ns", e.SelectNs}, {"update_ns", e.UpdateNs},
		{"steal_units", int64(e.StealUnits)}, {"idle_ns", e.IdleNs},
		{"iterations", int64(e.Iterations)}, {"evaluations", e.Evaluations},
		{"mapping_time_ns", int64(e.MappingTime)},
		{"island", int64(e.Island)}, {"migrants_in", int64(e.MigrantsIn)},
		{"migrants_out", int64(e.MigrantsOut)}, {"blend_rounds", int64(e.BlendRounds)},
	}
	for _, f := range ints {
		if f.v < 0 {
			return fmt.Errorf("trace: event has negative %s (%d)", f.name, f.v)
		}
	}
	return nil
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
func (t *Writer) Emit(e Event) error {
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
	if e.Kind == KindEnd {
		if err := t.w.Flush(); err != nil {
			t.err = err
			return err
		}
	}
	return nil
}

// Start emits a run-start event.
func (t *Writer) Start(solver string, tasks int, seed uint64) error {
	return t.Emit(Event{Kind: KindStart, Solver: solver, Tasks: tasks, Seed: seed})
}

// Iteration emits one iteration event; e.Kind is forced to KindIteration.
func (t *Writer) Iteration(e Event) error {
	e.Kind = KindIteration
	return t.Emit(e)
}

// End emits a run-end event and flushes it through.
func (t *Writer) End(exec float64, iterations int, evaluations int64, mappingTime time.Duration, stopReason string) error {
	return t.Emit(Event{
		Kind: KindEnd, Exec: exec, Iterations: iterations,
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
	Start      Event
	Iterations []Event
	End        *Event // nil when the stream ended mid-run (crash)
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
		var e Event
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
		case KindStart:
			if current != nil {
				// Previous run never ended (crash); keep it with End nil.
				runs = append(runs, *current)
			}
			current = &Run{Start: e}
		case KindIteration:
			if current == nil {
				return nil, fmt.Errorf("trace: iteration event before any start at line %d", lineNo)
			}
			current.Iterations = append(current.Iterations, e)
		case KindEnd:
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
