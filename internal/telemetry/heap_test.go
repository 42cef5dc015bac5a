package telemetry

import (
	"context"
	"runtime"
	"testing"

	"matchsim/internal/memcheck"
)

// TestSpanAttrsHeapBound: a finished span in the tracer ring holds at
// most 512 bytes for six attributes and one event of three attributes,
// what a job's root span carries. Kept as key-sorted slices they take
// about 350 bytes; as maps they took about 770.
func TestSpanAttrsHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const spans, perSpan = 1000, 512
	tr := NewTracer(TracerOptions{Capacity: spans})
	fill := func(annotate bool) {
		for i := 0; i < spans; i++ {
			_, s := tr.StartSpan(context.Background(), "job")
			if annotate {
				for _, k := range []string{"job_id", "solver", "tasks", "seed", "state", "stop_reason"} {
					s.SetAttr(k, "v")
				}
				s.Event("result", "exec", "1", "iterations", "2", "stop_reason", "x")
			}
			s.End()
		}
	}
	// The ring's slots are allocated by the first fill; the second
	// replaces every span, so the difference is the annotations alone.
	fill(false)
	before := memcheck.HeapAfterGC()
	fill(true)
	after := memcheck.HeapAfterGC()
	runtime.KeepAlive(tr)
	per := (int64(after) - int64(before)) / spans
	t.Logf("heap after GC: %d -> %d bytes, %d bytes of annotations per span", before, after, per)
	if per > perSpan {
		t.Errorf("%d annotated spans hold %d bytes each, want at most %d", spans, per, perSpan)
	}
}
