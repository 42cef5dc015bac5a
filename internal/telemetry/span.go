// Distributed tracing for the matchd service: a zero-dependency span
// implementation with W3C traceparent propagation. A Tracer hands out
// spans (trace ID / span ID / parent, string attributes, bounded events,
// monotonic timing), keeps the most recent finished spans in a ring
// buffer for the /v1/traces endpoints, and optionally mirrors every
// finished span to a JSONL log (same conventions as internal/trace:
// sticky error, flush per record).
//
// The tracing-off path is a nil *Tracer: StartSpan on a nil tracer
// returns a nil *Span, and every *Span method is nil-safe, so
// instrumented code calls span.Event(...) unconditionally and pays a
// single pointer test when tracing is disabled. Spans never touch the
// solver RNG or result path — a traced run is bit-identical to an
// untraced one.
package telemetry

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanEvent is one timestamped annotation inside a span, as the read
// paths (Tracer.Trace and the span log) render it. OffsetNs is measured
// monotonically from the span start.
type SpanEvent struct {
	Name     string            `json:"name"`
	OffsetNs int64             `json:"offset_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// SpanData is a finished span as the read paths render it: the record
// written to the span log and served by /v1/traces. The tracer ring keeps
// each span in a compact form (spanRecord) and renders a fresh SpanData
// for every read.
type SpanData struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Node identifies the daemon that produced the span, so a cross-node
	// trace reads unambiguously after merging.
	Node       string            `json:"node,omitempty"`
	Start      time.Time         `json:"start"`
	DurationNs int64             `json:"duration_ns"`
	Status     string            `json:"status,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []SpanEvent       `json:"events,omitempty"`
	// DroppedEvents counts events discarded after the per-span cap.
	DroppedEvents int `json:"dropped_events,omitempty"`
}

// TraceSummary is one row of the trace listing (GET /v1/traces).
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Node       string    `json:"node,omitempty"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Spans      int       `json:"spans"`
}

// TracerOptions configures NewTracer. Zero values take defaults.
type TracerOptions struct {
	// Node is stamped on every span (defaults to the process hostname).
	Node string
	// Capacity bounds the finished-span ring buffer (default 4096).
	Capacity int
	// MaxEventsPerSpan caps events per span; excess increments
	// DroppedEvents (default 512 — enough for one event per CE iteration
	// on long solves without unbounded growth).
	MaxEventsPerSpan int
	// Log, when non-nil, receives every finished span as one JSONL line.
	Log *SpanLog
}

// Tracer creates spans and retains the most recent finished ones. A nil
// *Tracer is the disabled tracer: it creates nil spans and costs nothing.
type Tracer struct {
	node      string
	capacity  int
	maxEvents int
	log       *SpanLog

	started  atomic.Int64
	finished atomic.Int64

	mu   sync.Mutex
	ring []spanRecord // circular; len grows to capacity then wraps
	next int          // insertion index once len(ring) == capacity
}

// NewTracer returns a tracer with the given options.
func NewTracer(opts TracerOptions) *Tracer {
	node := opts.Node
	if node == "" {
		if h, err := os.Hostname(); err == nil {
			node = h
		}
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 4096
	}
	maxEvents := opts.MaxEventsPerSpan
	if maxEvents <= 0 {
		maxEvents = 512
	}
	return &Tracer{node: node, capacity: capacity, maxEvents: maxEvents, log: opts.Log}
}

// Node returns the tracer's node identity ("" on a nil tracer).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Started returns the number of spans started ("" counters read 0 on a
// nil tracer).
func (t *Tracer) Started() int64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Finished returns the number of spans ended.
func (t *Tracer) Finished() int64 {
	if t == nil {
		return 0
	}
	return t.finished.Load()
}

// OpenSpans returns started minus finished — zero when every span was
// properly ended (the span-leak invariant checked by internal/verify).
func (t *Tracer) OpenSpans() int64 {
	if t == nil {
		return 0
	}
	return t.started.Load() - t.finished.Load()
}

// Span is one in-flight operation. Methods are safe for concurrent use
// and nil-safe: a nil *Span (from a nil tracer) no-ops everywhere.
type Span struct {
	tracer *Tracer

	mu    sync.Mutex
	rec   spanRecord
	start time.Time // monotonic reference
	ended bool
}

// spanRecord is a span as the tracer keeps it. Attributes are slices
// sorted by key, and the CE-iteration events are the records of an
// IterLog the span shares with its owner; render turns the record into
// SpanData. Once the span has ended nothing in it changes.
type spanRecord struct {
	traceID, spanID, parentID string
	name, node                string
	start                     time.Time
	durationNs                int64
	status                    string
	attrs                     []attr
	// events are the events Event recorded, up to the per-span cap, and
	// dropped counts those it discarded.
	events  []spanEvent
	dropped int
	// iters holds the span's "iter" events; nIters is the number of
	// records appended to it when the span ended.
	iters  *IterLog
	nIters int
}

// spanEvent is one event Event recorded. at is the number of iteration
// records the span had by then: the read paths place the event after
// them.
type spanEvent struct {
	name     string
	offsetNs int64
	attrs    []attr
	at       int
}

// attr is one string attribute. A span keeps its attributes, and an event
// its own, as a slice sorted by key: a few dozen bytes where a map takes
// a few hundred. The read paths render them as maps, whose JSON encoding
// sorts the keys the same way.
type attr struct{ key, value string }

// setAttr sets key to value in as, which is sorted by key, replacing an
// earlier value of key.
func setAttr(as []attr, key, value string) []attr {
	i, found := slices.BinarySearchFunc(as, key, func(a attr, k string) int { return strings.Compare(a.key, k) })
	if found {
		as[i].value = value
		return as
	}
	return slices.Insert(as, i, attr{key, value})
}

// attrMap renders attributes as a map, nil when there are none.
func attrMap(as []attr) map[string]string {
	if len(as) == 0 {
		return nil
	}
	m := make(map[string]string, len(as))
	for _, a := range as {
		m[a.key] = a.value
	}
	return m
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan starts a span named name. If ctx carries a span, the new
// span joins its trace as a child; otherwise it roots a new trace. The
// returned context carries the new span. On a nil tracer both returns
// are pass-throughs (ctx, nil).
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var traceID, parentID string
	if p := SpanFromContext(ctx); p != nil {
		traceID, parentID = p.TraceID(), p.SpanID()
	}
	s := t.newSpan(name, traceID, parentID)
	return ContextWithSpan(ctx, s), s
}

// StartSpanRemote starts a span continuing the trace described by a W3C
// traceparent header value. An empty or malformed traceparent falls back
// to StartSpan semantics (parent from ctx, else new root).
func (t *Tracer) StartSpanRemote(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if traceID, parentID, ok := ParseTraceparent(traceparent); ok {
		s := t.newSpan(name, traceID, parentID)
		return ContextWithSpan(ctx, s), s
	}
	return t.StartSpan(ctx, name)
}

func (t *Tracer) newSpan(name, traceID, parentID string) *Span {
	if traceID == "" {
		traceID = NewTraceID()
	}
	t.started.Add(1)
	now := time.Now() // carries the monotonic clock for duration math
	return &Span{
		tracer: t,
		start:  now,
		rec: spanRecord{
			traceID:  traceID,
			spanID:   NewSpanID(),
			parentID: parentID,
			name:     name,
			node:     t.node,
			start:    now,
		},
	}
}

// Child starts a child span without threading a context — for callers
// that hold the parent span directly.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	traceID, parentID := s.rec.traceID, s.rec.spanID
	s.mu.Unlock()
	return s.tracer.newSpan(name, traceID, parentID)
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.traceID
}

// SpanID returns the span's ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.rec.spanID
}

// Traceparent renders the span as a W3C traceparent header value ("" on
// nil) for injection into outbound requests.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.rec.traceID, s.rec.spanID)
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rec.attrs = setAttr(s.rec.attrs, key, value)
	}
}

// SetAttrInt records an integer attribute.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SetStatus records the span outcome (e.g. "ok", "error", "cancelled").
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rec.status = status
	}
}

// Event appends a timestamped event with optional key/value attribute
// pairs (an odd trailing key is ignored; a repeated key keeps its last
// value). Events beyond the tracer's per-span cap, counting the span's
// iteration events, are counted in DroppedEvents instead of stored.
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	ev := spanEvent{name: name, offsetNs: s.Elapsed()}
	if len(kv) >= 2 {
		ev.attrs = make([]attr, 0, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.attrs = setAttr(ev.attrs, kv[i], kv[i+1])
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	_, ev.at = s.rec.iters.Records()
	if len(s.rec.events)+ev.at >= s.tracer.maxEvents {
		s.rec.dropped++
		return
	}
	s.rec.events = append(s.rec.events, ev)
}

// SetIterLog makes the records appended to l the span's CE-iteration
// events, named "iter", in order with the events Event records. The span
// reads the records where they are; it copies none. A record's OffsetNs
// is its event's offset, so the appender takes it from Elapsed. The
// records appended once the span has ended are not its events. The span
// shows only the records l keeps: the events past them count as dropped,
// as those past the tracer's per-span cap do, so a log that keeps fewer
// records than that cap also cuts the span's events shorter.
func (s *Span) SetIterLog(l *IterLog) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rec.iters = l
	}
}

// Elapsed returns the nanoseconds since the span started: the offset of
// an event recorded now (0 on a nil span).
func (s *Span) Elapsed() int64 {
	if s == nil {
		return 0
	}
	return time.Since(s.start).Nanoseconds()
}

// End finishes the span: stamps the monotonic duration, moves the record
// into the tracer ring and span log, and makes further mutations no-ops.
// End is idempotent; only the first call takes effect.
func (s *Span) End() {
	if s == nil {
		return
	}
	elapsed := s.Elapsed()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	r := &s.rec
	r.durationNs = elapsed
	// The ring keeps the span for its lifetime: drop append's slack.
	r.attrs, r.events = clipped(r.attrs), clipped(r.events)
	_, r.nIters = r.iters.Records()
	rec := s.rec
	s.mu.Unlock()

	t := s.tracer
	t.finished.Add(1)
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % t.capacity
	}
	t.mu.Unlock()
	if t.log != nil {
		t.log.Write(rec.render(t.maxEvents)) // sticky error surfaces on Close
	}
}

// clipped returns s without spare capacity, copying it when it has some.
func clipped[T any](s []T) []T {
	if cap(s) > len(s) {
		return slices.Clone(s)
	}
	return s
}

// render returns the finished span as SpanData, in fresh maps and slices
// a reader may keep or change. Its events are the recorded events and
// the iteration records merged in the order they happened, cut after the
// first maxEvents; every event past the cut counts in DroppedEvents. The cut
// also falls where the iteration log kept no more records.
func (r *spanRecord) render(maxEvents int) SpanData {
	sd := SpanData{
		TraceID:    r.traceID,
		SpanID:     r.spanID,
		ParentID:   r.parentID,
		Name:       r.name,
		Node:       r.node,
		Start:      r.start,
		DurationNs: r.durationNs,
		Status:     r.status,
		Attrs:      attrMap(r.attrs),
	}
	total := len(r.events) + r.dropped + r.nIters
	if total == 0 {
		return sd
	}
	recs, _ := r.iters.Records()
	evs := make([]SpanEvent, 0, min(total, maxEvents))
	next := 0 // the next iteration record
	// iters appends the iteration events before record upTo and reports
	// whether the sequence goes on past them.
	iters := func(upTo int) bool {
		for ; next < upTo; next++ {
			if len(evs) == maxEvents || next == len(recs) {
				return false
			}
			evs = append(evs, recs[next].event())
		}
		return len(evs) < maxEvents
	}
	for _, ev := range r.events {
		if !iters(ev.at) {
			break
		}
		evs = append(evs, SpanEvent{Name: ev.name, OffsetNs: ev.offsetNs, Attrs: attrMap(ev.attrs)})
	}
	iters(r.nIters)
	if len(evs) > 0 {
		sd.Events = evs
	}
	sd.DroppedEvents = total - len(evs)
	return sd
}

// Trace returns every retained finished span of the given trace, sorted
// by start time (span ID breaking ties), rendered as SpanData. Spans
// evicted from the ring or still open are not included.
func (t *Tracer) Trace(traceID string) []SpanData {
	if t == nil || traceID == "" {
		return nil
	}
	t.mu.Lock()
	var recs []spanRecord
	for i := range t.ring {
		if t.ring[i].traceID == traceID {
			recs = append(recs, t.ring[i])
		}
	}
	t.mu.Unlock()
	out := make([]SpanData, len(recs))
	for i := range recs {
		out[i] = recs[i].render(t.maxEvents)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Traces summarises the retained traces, most recent first, up to limit
// (limit <= 0 means all).
func (t *Tracer) Traces(limit int) []TraceSummary {
	if t == nil {
		return nil
	}
	type agg struct {
		first, last time.Time  // earliest start, latest end
		root        spanRecord // earliest parentless span, else earliest span
		hasRoot     bool
		spans       int
	}
	t.mu.Lock()
	groups := make(map[string]*agg)
	for i := range t.ring {
		r := &t.ring[i]
		g := groups[r.traceID]
		if g == nil {
			g = &agg{first: r.start, last: r.start.Add(time.Duration(r.durationNs))}
			groups[r.traceID] = g
		}
		if r.start.Before(g.first) {
			g.first = r.start
		}
		if end := r.start.Add(time.Duration(r.durationNs)); end.After(g.last) {
			g.last = end
		}
		isRoot := r.parentID == ""
		switch {
		case isRoot && (!g.hasRoot || r.start.Before(g.root.start)):
			g.root, g.hasRoot = *r, true
		case !g.hasRoot && (g.spans == 0 || r.start.Before(g.root.start)):
			g.root = *r
		}
		g.spans++
	}
	t.mu.Unlock()
	out := make([]TraceSummary, 0, len(groups))
	for id, g := range groups {
		out = append(out, TraceSummary{
			TraceID:    id,
			Root:       g.root.name,
			Node:       g.root.node,
			Start:      g.first,
			DurationNs: g.last.Sub(g.first).Nanoseconds(),
			Spans:      g.spans,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].TraceID < out[j].TraceID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// NewTraceID returns 16 random bytes in lowercase hex (32 chars).
func NewTraceID() string { return randomHex(16) }

// NewSpanID returns 8 random bytes in lowercase hex (16 chars).
func NewSpanID() string { return randomHex(8) }

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("telemetry: crypto/rand failed: %v", err))
	}
	// The W3C spec forbids the all-zero ID; a random all-zero draw is
	// astronomically unlikely but cheap to repair.
	allZero := true
	for _, v := range b {
		if v != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[n-1] = 1
	}
	return hex.EncodeToString(b)
}

// FormatTraceparent renders a version-00 W3C traceparent header value
// with the sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent validates a W3C traceparent header value and returns
// its trace and parent-span IDs. It accepts any version except the
// reserved "ff", requires lowercase hex fields of the exact widths, and
// rejects all-zero IDs, per the spec.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	version, trace, span, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if len(h) > 55 && (version == "00" || h[55] != '-') {
		// Version 00 has no trailing fields; future versions may append
		// "-..." suffixes which we ignore.
		return "", "", false
	}
	if version == "ff" || !isLowerHex(version) || !isLowerHex(flags) {
		return "", "", false
	}
	if !isLowerHex(trace) || !isLowerHex(span) || allZeroHex(trace) || allZeroHex(span) {
		return "", "", false
	}
	return trace, span, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// SpanLog writes finished spans as JSONL, one SpanData document per
// line, following the internal/trace writer conventions: a mutex guards
// the underlying writer, the first error sticks and is returned from
// every later call, and each record is flushed so a crash loses at most
// the torn final line.
type SpanLog struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewSpanLog wraps an io.Writer. If w also implements io.Closer, Close
// closes it.
func NewSpanLog(w io.Writer) *SpanLog {
	l := &SpanLog{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// Write appends one span record.
func (l *SpanLog) Write(sd SpanData) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	b, err := json.Marshal(sd)
	if err != nil {
		l.err = err
		return err
	}
	if _, err := l.w.Write(append(b, '\n')); err != nil {
		l.err = err
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Close flushes and closes the underlying writer, returning the sticky
// error if any write failed.
func (l *SpanLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ferr := l.w.Flush()
	if l.err == nil {
		l.err = ferr
	}
	if l.c != nil {
		if cerr := l.c.Close(); l.err == nil {
			l.err = cerr
		}
	}
	return l.err
}
