package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"
)

// referenceIterEvent is the map-building iteration event the typed
// record replaced: every attribute formatted while the solver runs. It
// is the reference the typed path's wire output must reproduce byte for
// byte.
func referenceIterEvent(s *Span, it Iter) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	s.Event("iter",
		"i", strconv.Itoa(it.I),
		"gamma", f(it.Gamma),
		"best_so_far", f(it.BestSoFar),
		"draws", strconv.Itoa(it.Draws),
		"sample_ns", strconv.FormatInt(it.SampleNs, 10),
		"select_ns", strconv.FormatInt(it.SelectNs, 10),
		"update_ns", strconv.FormatInt(it.UpdateNs, 10))
}

// edgeIters covers integral floats, extreme magnitudes, negative zero,
// values that need all 17 significant digits, and extreme integers.
var edgeIters = []Iter{
	{I: 0, Gamma: 150, BestSoFar: 120, Draws: 288, SampleNs: 1000, SelectNs: 20, UpdateNs: 3},
	{I: 1, Gamma: 1e-300, BestSoFar: 1e300, Draws: 1, SampleNs: 0, SelectNs: 0, UpdateNs: 0},
	{I: 2, Gamma: math.Copysign(0, -1), BestSoFar: 0},
	{I: 3, Gamma: 0.1 + 0.2, BestSoFar: math.Pi, Draws: 7},
	{I: 4, Gamma: 123456789.12345678, BestSoFar: 1.0000000000000002, Draws: math.MaxInt32},
	{I: 5, Gamma: math.SmallestNonzeroFloat64, BestSoFar: math.MaxFloat64},
	{I: math.MaxInt, Gamma: -2.5e-7, BestSoFar: 5e-324, Draws: math.MaxInt,
		SampleNs: math.MaxInt64, SelectNs: math.MaxInt64 - 1, UpdateNs: 1 << 40},
}

// pinSpan gives a span fixed identity, start and event offsets, so two
// spans that recorded the same events marshal to the same bytes apart
// from their duration.
func pinSpan(s *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data.TraceID, s.data.SpanID = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	s.data.Start = time.Date(2005, 4, 4, 0, 0, 0, 0, time.UTC)
	for k := range s.data.Events {
		s.data.Events[k].OffsetNs = int64(k)
	}
}

var durationField = regexp.MustCompile(`"duration_ns":[0-9]+`)

// TestIterEventWireMatchesReference: a span whose iterations were
// recorded as typed records reads back, through Tracer.Trace and through
// the span log, as the same JSON bytes as a span whose iterations were
// recorded as formatted attribute maps. A cache-hit style generic event
// sits between the iterations, and the cap drops the tail in both.
func TestIterEventWireMatchesReference(t *testing.T) {
	var logBuf bytes.Buffer
	log := NewSpanLog(&logBuf)
	tr := NewTracer(TracerOptions{Node: "n", Capacity: 8, MaxEventsPerSpan: len(edgeIters), Log: log})
	record := func(iter func(*Span, Iter)) {
		_, s := tr.StartSpan(context.Background(), "solve")
		s.SetAttr("k", "v")
		for k, it := range edgeIters {
			if k == 2 {
				s.Event("checkpoint", "has_state", "true")
			}
			iter(s, it)
		}
		pinSpan(s)
		s.End()
	}
	record((*Span).IterEvent)
	record(referenceIterEvent)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	spans := tr.Trace("4bf92f3577b34da6a3ce929d0e0e4736")
	if len(spans) != 2 {
		t.Fatalf("Trace returned %d spans, want 2", len(spans))
	}
	var fromTrace [2][]byte
	for k, sd := range spans {
		if len(sd.Events) != len(edgeIters) || sd.DroppedEvents != 1 {
			t.Fatalf("span %d: %d events, %d dropped; want %d and 1", k, len(sd.Events), sd.DroppedEvents, len(edgeIters))
		}
		sd.DurationNs = 0
		b, err := json.Marshal(sd)
		if err != nil {
			t.Fatal(err)
		}
		fromTrace[k] = b
	}
	if !bytes.Equal(fromTrace[0], fromTrace[1]) {
		t.Errorf("Trace JSON differs:\ntyped     %s\nreference %s", fromTrace[0], fromTrace[1])
	}

	var lines [][]byte
	sc := bufio.NewScanner(&logBuf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, durationField.ReplaceAll(bytes.Clone(sc.Bytes()), []byte(`"duration_ns":0`)))
	}
	if len(lines) != 2 {
		t.Fatalf("span log holds %d lines, want 2", len(lines))
	}
	if !bytes.Equal(lines[0], lines[1]) {
		t.Errorf("span log lines differ:\ntyped     %s\nreference %s", lines[0], lines[1])
	}
	if !bytes.Equal(lines[0], fromTrace[0]) {
		t.Errorf("span log line and Trace JSON differ:\nlog   %s\ntrace %s", lines[0], fromTrace[0])
	}
}

// TestEndClipsEventSlack: a finished span holds no append slack in its
// events slice.
func TestEndClipsEventSlack(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 4})
	_, s := tr.StartSpan(context.Background(), "solve")
	for i := 0; i < 5; i++ {
		s.IterEvent(Iter{I: i})
	}
	s.End()
	evs := tr.ring[0].Events
	if len(evs) != 5 || cap(evs) > 5 {
		t.Fatalf("ring span holds %d events with capacity %d, want 5 and no slack", len(evs), cap(evs))
	}
}

// TestIterEventConcurrentReads records iteration events on spans from
// several goroutines while others read and render them through Trace and
// the span log; under -race it checks the read paths share nothing
// mutable with the ring.
func TestIterEventConcurrentReads(t *testing.T) {
	log := NewSpanLog(io.Discard)
	tr := NewTracer(TracerOptions{Capacity: 16, Log: log})
	ctx, root := tr.StartSpan(context.Background(), "root")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, s := tr.StartSpan(ctx, "solve")
				s.IterEvent(Iter{I: i, Gamma: float64(i) / 3})
				root.IterEvent(Iter{I: i})
				s.End()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, sd := range tr.Trace(root.TraceID()) {
					for _, ev := range sd.Events {
						ev.Attrs["i"] = "read"
					}
				}
			}
		}()
	}
	wg.Wait()
	root.End()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sd := range tr.Trace(root.TraceID()) {
		for _, ev := range sd.Events {
			if ev.Attrs["i"] == "read" {
				t.Fatalf("a reader's write reached the ring: %+v", ev)
			}
		}
	}
}
