package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
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

// appendIter records an iteration the way a job does: into the
// iteration log the span renders its "iter" events from.
func appendIter(s *Span, it Iter) {
	it.OffsetNs = s.Elapsed()
	s.rec.iters.Append(it)
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
// from their duration. An event's offset is its place in the order the
// span recorded its events and iterations.
func pinSpan(s *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec.traceID, s.rec.spanID = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	s.rec.start = time.Date(2005, 4, 4, 0, 0, 0, 0, time.UTC)
	evs := s.rec.events
	for k := range evs {
		evs[k].offsetNs = int64(evs[k].at + k)
	}
	recs, _ := s.rec.iters.Records()
	for i := range recs {
		before := 0
		for _, ev := range evs {
			if ev.at <= i {
				before++
			}
		}
		recs[i].OffsetNs = int64(i + before)
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
		s.SetIterLog(NewIterLog(len(edgeIters)))
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
	record(appendIter)
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
// events and attributes, which stay sorted by key with one value a key,
// nor a clipped iteration log in its records.
func TestEndClipsEventSlack(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 4})
	_, s := tr.StartSpan(context.Background(), "solve")
	l := NewIterLog(512)
	s.SetIterLog(l)
	for i := 0; i < 5; i++ {
		s.Event("tick", "i", strconv.Itoa(i))
		s.SetAttr(strconv.Itoa(4-i), "v")
		appendIter(s, Iter{I: i})
	}
	s.SetAttr("2", "w")
	s.End()
	l.Clip()
	r := tr.ring[0]
	if len(r.events) != 5 || cap(r.events) > 5 {
		t.Errorf("ring span holds %d events with capacity %d, want 5 and no slack", len(r.events), cap(r.events))
	}
	if len(r.attrs) != 5 || cap(r.attrs) > 5 {
		t.Errorf("ring span holds %d attributes with capacity %d, want 5 and no slack", len(r.attrs), cap(r.attrs))
	}
	if !slices.IsSortedFunc(r.attrs, func(a, b attr) int { return strings.Compare(a.key, b.key) }) {
		t.Errorf("ring span attributes %v are not sorted by key", r.attrs)
	}
	if recs, n := l.Records(); len(recs) != 5 || n != 5 || cap(l.recs) > 5 {
		t.Errorf("clipped log holds %d of %d records with capacity %d, want 5 of 5 and no slack", len(recs), n, cap(l.recs))
	}
	if sd := tr.Trace(s.TraceID())[0]; len(sd.Events) != 10 || sd.DroppedEvents != 0 {
		t.Errorf("span renders %d events, %d dropped; want 10 and 0", len(sd.Events), sd.DroppedEvents)
	}
}

// TestIterEventConcurrentReads appends iteration records from several
// goroutines to logs that spans read, finished ones included, while
// others read and render the spans through Trace and the span log; under
// -race it checks the read paths share nothing mutable with the ring.
func TestIterEventConcurrentReads(t *testing.T) {
	log := NewSpanLog(io.Discard)
	tr := NewTracer(TracerOptions{Capacity: 16, Log: log})
	ctx, root := tr.StartSpan(context.Background(), "root")
	root.SetIterLog(NewIterLog(512))
	shared := NewIterLog(64) // outlives the spans that read it
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, s := tr.StartSpan(ctx, "solve")
				s.SetIterLog(shared)
				appendIter(s, Iter{I: i, Gamma: float64(i) / 3})
				appendIter(root, Iter{I: i})
				s.Event("tick", "k", "v")
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
