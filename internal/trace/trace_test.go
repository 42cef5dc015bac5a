package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Start("MaTCH", 20, 7); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.Iteration(api.Event{Iter: i, Gamma: 100 - float64(i), Best: 90 - float64(i), Mean: 95, BestSoFar: 90 - float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.End(87, 3, 600, 12*time.Millisecond, "gamma-stall"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs %d", len(runs))
	}
	run := runs[0]
	if run.Start.Solver != "MaTCH" || run.Start.Tasks != 20 || run.Start.Seed != 7 {
		t.Fatalf("start event %+v", run.Start)
	}
	if len(run.Iterations) != 3 {
		t.Fatalf("iterations %d", len(run.Iterations))
	}
	if run.Iterations[1].Iter != 2 || run.Iterations[1].Gamma != 98 {
		t.Fatalf("iteration payload %+v", run.Iterations[1])
	}
	if run.End == nil || run.End.Exec != 87 || run.End.StopReason != "gamma-stall" {
		t.Fatalf("end event %+v", run.End)
	}
	if run.End.MappingTime != 12*time.Millisecond {
		t.Fatalf("mapping time %v", run.End.MappingTime)
	}
}

func TestReadMultipleRuns(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for r := 0; r < 3; r++ {
		w.Start("GA", 10, uint64(r))
		w.Iteration(api.Event{Iter: 1, Best: 50, Mean: 60, BestSoFar: 50})
		w.End(50, 1, 100, time.Millisecond, "generations")
	}
	w.Flush()
	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs %d", len(runs))
	}
	for i, run := range runs {
		if run.Start.Seed != uint64(i) || run.End == nil {
			t.Fatalf("run %d malformed", i)
		}
	}
}

func TestReadCrashedRun(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Start("MaTCH", 5, 1)
	w.Iteration(api.Event{Iter: 1, Gamma: 10, Best: 9, Mean: 9.5, BestSoFar: 9})
	// No end event: the process died.
	w.Flush()
	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].End != nil {
		t.Fatalf("crashed run not surfaced: %+v", runs)
	}
	if len(runs[0].Iterations) != 1 {
		t.Fatal("iterations lost")
	}
}

func TestReadTornFinalLine(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Start("MaTCH", 5, 1)
	w.End(10, 1, 5, time.Millisecond, "done")
	w.Flush()
	buf.WriteString(`{"kind":"start","solver":"MaT`) // torn mid-write
	runs, err := Read(&buf)
	if err != nil {
		t.Fatalf("torn final line should be tolerated: %v", err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs %d", len(runs))
	}
}

func TestReadRejectsMidStreamCorruption(t *testing.T) {
	input := `{"kind":"start","solver":"x","tasks":1}
garbage not json
{"kind":"end","exec":1}
`
	if _, err := Read(strings.NewReader(input)); err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
}

func TestReadRejectsOrphanEvents(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"kind":"iter","iter":1}` + "\n")); err == nil {
		t.Fatal("orphan iteration accepted")
	}
	if _, err := Read(strings.NewReader(`{"kind":"end"}` + "\n")); err == nil {
		t.Fatal("orphan end accepted")
	}
	if _, err := Read(strings.NewReader(`{"kind":"weird"}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestEmitRejectsKindlessEvent(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Emit(api.Event{}); err == nil {
		t.Fatal("kindless event accepted")
	}
}

func TestBackToBackRunsWithoutEnd(t *testing.T) {
	input := `{"kind":"start","solver":"a","tasks":1}
{"kind":"start","solver":"b","tasks":2}
{"kind":"end","exec":3}
`
	runs, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs %d", len(runs))
	}
	if runs[0].End != nil || runs[0].Start.Solver != "a" {
		t.Fatalf("crashed first run: %+v", runs[0])
	}
	if runs[1].End == nil || runs[1].Start.Solver != "b" {
		t.Fatalf("second run: %+v", runs[1])
	}
}

// TestZeroSeedAndIterationRoundTrip is the regression test for the
// omitempty bug: seed 0 is a valid seed and resumed runs re-emit
// iteration 0, so both values must survive the wire even though they are
// Go zero values.
func TestZeroSeedAndIterationRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Start("MaTCH", 8, 0); err != nil { // seed 0, deliberately
		t.Fatal(err)
	}
	if err := w.Iteration(api.Event{Iter: 0, Gamma: 12, Best: 10, Mean: 11, BestSoFar: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.End(10, 1, 64, time.Millisecond, "cancelled"); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{`"seed":0`, `"iter":0`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("wire form dropped %s:\n%s", want, buf.String())
		}
	}
	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Start.Seed != 0 {
		t.Errorf("seed not preserved: %+v", runs[0].Start)
	}
	if len(runs[0].Iterations) != 1 || runs[0].Iterations[0].Iter != 0 {
		t.Errorf("iteration 0 not preserved: %+v", runs[0].Iterations)
	}
}

// TestSolverInternalsRoundTrip checks the enriched iteration payload
// survives encode/decode field-for-field.
func TestSolverInternalsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Start("MaTCH", 16, 3)
	in := api.Event{
		Iter: 4, Gamma: 55, Best: 50, Worst: 80, Mean: 60, BestSoFar: 48,
		Elite: 15, Draws: 512,
		RejectTries: 1234, FallbackDraws: 56,
		SampleNs: 150_000, SelectNs: 12_000, UpdateNs: 9_000,
		StealUnits: 3, IdleNs: 4_500,
	}
	if err := w.Iteration(in); err != nil {
		t.Fatal(err)
	}
	w.End(48, 4, 2048, time.Millisecond, "max-iterations")

	runs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := runs[0].Iterations[0]
	in.Kind = api.KindIteration
	if got != in {
		t.Errorf("round trip mutated event:\n got %+v\nwant %+v", got, in)
	}
}

// failAfter fails every write once n bytes have passed through.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errTestSink
	}
	f.written += len(p)
	return len(p), nil
}

var errTestSink = errors.New("sink full")

func TestWriterStickyError(t *testing.T) {
	sink := &failAfter{n: 0} // every flush fails
	w := NewWriter(sink)
	if err := w.Err(); err != nil {
		t.Fatalf("fresh writer carries error %v", err)
	}
	// Emits buffer fine; End forces a flush that must fail and stick.
	if err := w.End(1, 1, 1, time.Millisecond, "x"); err == nil {
		t.Fatal("End on failing sink succeeded")
	}
	if w.Err() == nil {
		t.Fatal("error did not stick")
	}
	if err := w.Emit(api.Event{Kind: api.KindStart}); err == nil {
		t.Fatal("Emit after sticky error succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close lost the sticky error")
	}
}

// closeRecorder proves Close reaches the underlying io.Closer.
type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

func TestWriterCloseFlushesAndCloses(t *testing.T) {
	sink := &closeRecorder{}
	w := NewWriter(sink)
	if err := w.Start("MaTCH", 4, 9); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Error("underlying closer not closed")
	}
	if !strings.Contains(sink.String(), `"kind":"start"`) {
		t.Error("Close did not flush buffered events")
	}
}

// TestEndAutoFlush: a trace file must be complete on disk after each run
// ends, without an explicit Flush.
func TestEndAutoFlush(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Start("MaTCH", 4, 1)
	w.End(5, 1, 16, time.Millisecond, "done")
	if runs, err := Read(bytes.NewReader(buf.Bytes())); err != nil || len(runs) != 1 || runs[0].End == nil {
		t.Fatalf("end event not flushed through: runs=%v err=%v", runs, err)
	}
}

// TestConcurrentEmit hammers one Writer from many goroutines — the
// matchd daemon's usage pattern, where every job shares a single trace
// stream. Run under -race it proves the Writer's locking; the decode pass
// proves events interleave whole, never torn mid-line.
func TestConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const (
		writers        = 8
		eventsPerGorou = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < eventsPerGorou; i++ {
				if err := w.Iteration(api.Event{Iter: i, Gamma: 1, Best: 2, Mean: 3, BestSoFar: 4}); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				if i%50 == 0 {
					if err := w.Flush(); err != nil {
						t.Errorf("writer %d flush: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every line must decode as one whole event.
	scanner := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for scanner.Scan() {
		if len(scanner.Bytes()) == 0 {
			continue
		}
		var e api.Event
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			t.Fatalf("torn event on line %d: %v\n%s", lines+1, err, scanner.Bytes())
		}
		if e.Kind != api.KindIteration {
			t.Fatalf("unexpected kind %q on line %d", e.Kind, lines+1)
		}
		lines++
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if want := writers * eventsPerGorou; lines != want {
		t.Fatalf("decoded %d events, want %d", lines, want)
	}
}

// TestReadLegacySolverInternals: traces written by older builds carry
// pruned, rescored, skipped_edges, rebuilt_rows and skipped_rows on
// iteration events. This build no longer defines them; such files must still replay, every current field
// intact.
func TestReadLegacySolverInternals(t *testing.T) {
	input := `{"kind":"start","solver":"MaTCH","tasks":16,"seed":3,"iter":0}
{"kind":"iter","seed":0,"iter":4,"gamma":55,"best":50,"worst":80,"mean":60,"best_so_far":48,"elite":15,"draws":512,"pruned":300,"rescored":7,"reject_tries":1234,"fallback_draws":56,"skipped_edges":7890,"sample_ns":150000,"rebuilt_rows":16,"skipped_rows":3}
{"kind":"end","seed":0,"iter":0,"exec":48,"iterations":4,"stop_reason":"max-iterations"}
`
	runs, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("legacy trace rejected: %v", err)
	}
	if len(runs) != 1 || len(runs[0].Iterations) != 1 || runs[0].End == nil {
		t.Fatalf("legacy trace replayed as %+v", runs)
	}
	want := api.Event{
		Kind: api.KindIteration, Iter: 4, Gamma: 55, Best: 50, Worst: 80, Mean: 60, BestSoFar: 48,
		Elite: 15, Draws: 512, RejectTries: 1234, FallbackDraws: 56, SampleNs: 150_000,
	}
	if got := runs[0].Iterations[0]; got != want {
		t.Errorf("legacy iteration decoded as %+v, want %+v", got, want)
	}
}

// TestIterEventCarriesEveryField fills each IterationTrace field with a
// distinct value and checks IterEvent lands it in the api.Event field of
// the same name, so a counter added to the callback record cannot be
// silently dropped on the way to the wire.
func TestIterEventCarriesEveryField(t *testing.T) {
	renamed := map[string]string{"Iteration": "Iter", "EliteCount": "Elite"}
	deprecated := map[string]bool{"Pruned": true, "Rescored": true, "SkippedEdges": true,
		"RebuiltRows": true, "SkippedRows": true}

	var tr matchsim.IterationTrace
	in := reflect.ValueOf(&tr).Elem()
	for i := 0; i < in.NumField(); i++ {
		f := in.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("IterationTrace.%s has unhandled kind %s", in.Type().Field(i).Name, f.Kind())
		}
	}
	e := IterEvent(tr)
	if e.Kind != api.KindIteration {
		t.Errorf("kind %q, want %q", e.Kind, api.KindIteration)
	}
	out := reflect.ValueOf(e)
	for i := 0; i < in.NumField(); i++ {
		name := in.Type().Field(i).Name
		if deprecated[name] {
			continue
		}
		wire := name
		if r, ok := renamed[name]; ok {
			wire = r
		}
		got := out.FieldByName(wire)
		if !got.IsValid() {
			t.Errorf("IterationTrace.%s has no api.Event.%s", name, wire)
			continue
		}
		if got.Interface() != in.Field(i).Interface() {
			t.Errorf("api.Event.%s = %v, want IterationTrace.%s = %v", wire, got, name, in.Field(i))
		}
	}
}
