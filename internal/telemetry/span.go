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
	"sync"
	"sync/atomic"
	"time"
)

// SpanEvent is one timestamped annotation inside a span. OffsetNs is
// measured monotonically from the span start. A CE-iteration event
// (Span.IterEvent) keeps its payload as an Iter record and has no Attrs
// while it is retained; the read paths (Tracer.Trace and the span log)
// render them.
type SpanEvent struct {
	Name     string            `json:"name"`
	OffsetNs int64             `json:"offset_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`

	iter    Iter
	hasIter bool
}

// Iter is the payload of one CE-iteration span event: the iteration
// index, the γ quantile of eq. (10), the best score so far, the samples
// drawn and the sample/select/update phase times. It is held as numbers
// and rendered as string attributes only when the span is read.
type Iter struct {
	I         int
	Gamma     float64
	BestSoFar float64
	Draws     int
	SampleNs  int64
	SelectNs  int64
	UpdateNs  int64
}

// attrs renders the record as the event's string attributes.
func (it *Iter) attrs() map[string]string {
	return map[string]string{
		"i":           strconv.Itoa(it.I),
		"gamma":       strconv.FormatFloat(it.Gamma, 'g', -1, 64),
		"best_so_far": strconv.FormatFloat(it.BestSoFar, 'g', -1, 64),
		"draws":       strconv.Itoa(it.Draws),
		"sample_ns":   strconv.FormatInt(it.SampleNs, 10),
		"select_ns":   strconv.FormatInt(it.SelectNs, 10),
		"update_ns":   strconv.FormatInt(it.UpdateNs, 10),
	}
}

// SpanData is the immutable record of a finished span — the unit stored
// in the tracer ring, written to the span log and served by /v1/traces.
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
	ring []SpanData // circular; len grows to capacity then wraps
	next int        // insertion index once len(ring) == capacity
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
	data  SpanData
	start time.Time // monotonic reference
	ended bool
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
		data: SpanData{
			TraceID:  traceID,
			SpanID:   NewSpanID(),
			ParentID: parentID,
			Name:     name,
			Node:     t.node,
			Start:    now,
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
	traceID, parentID := s.data.TraceID, s.data.SpanID
	s.mu.Unlock()
	return s.tracer.newSpan(name, traceID, parentID)
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID returns the span's ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// Traceparent renders the span as a W3C traceparent header value ("" on
// nil) for injection into outbound requests.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.data.TraceID, s.data.SpanID)
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[key] = value
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
		s.data.Status = status
	}
}

// Event appends a timestamped event with optional key/value attribute
// pairs (an odd trailing key is ignored). Events beyond the tracer's
// per-span cap are counted in DroppedEvents instead of stored.
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: name}
	if len(kv) >= 2 {
		ev.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.Attrs[kv[i]] = kv[i+1]
		}
	}
	s.addEvent(ev)
}

// IterEvent appends one CE-iteration event, named "iter". The record is
// stored as numbers; no string is formatted until the span is read.
func (s *Span) IterEvent(it Iter) {
	if s == nil {
		return
	}
	s.addEvent(SpanEvent{Name: "iter", iter: it, hasIter: true})
}

func (s *Span) addEvent(ev SpanEvent) {
	ev.OffsetNs = time.Since(s.start).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if len(s.data.Events) >= s.tracer.maxEvents {
		s.data.DroppedEvents++
		return
	}
	s.data.Events = append(s.data.Events, ev)
}

// End finishes the span: stamps the monotonic duration, moves the record
// into the tracer ring and span log, and makes further mutations no-ops.
// End is idempotent; only the first call takes effect.
func (s *Span) End() {
	if s == nil {
		return
	}
	elapsed := time.Since(s.start).Nanoseconds()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.DurationNs = elapsed
	if evs := s.data.Events; cap(evs) > len(evs) {
		// The ring keeps the span for its lifetime: drop append's slack.
		s.data.Events = make([]SpanEvent, len(evs))
		copy(s.data.Events, evs)
	}
	sd := s.data
	s.mu.Unlock()

	t := s.tracer
	t.finished.Add(1)
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, sd)
	} else {
		t.ring[t.next] = sd
		t.next = (t.next + 1) % t.capacity
	}
	t.mu.Unlock()
	if t.log != nil {
		t.log.Write(sd.rendered()) // sticky error surfaces on Close
	}
}

// rendered returns sd with the Attrs of its CE-iteration events filled
// in. The events slice is copied when any needs rendering, so a span
// retained in the ring never shares a mutable map with a reader.
func (sd SpanData) rendered() SpanData {
	i := slices.IndexFunc(sd.Events, func(ev SpanEvent) bool { return ev.hasIter })
	if i < 0 {
		return sd
	}
	evs := slices.Clone(sd.Events)
	for ; i < len(evs); i++ {
		if evs[i].hasIter {
			evs[i].Attrs = evs[i].iter.attrs()
		}
	}
	sd.Events = evs
	return sd
}

// Trace returns every retained finished span of the given trace, sorted
// by start time (span ID breaking ties), with CE-iteration events
// rendered into Attrs. Spans evicted from the ring or still open are not
// included.
func (t *Tracer) Trace(traceID string) []SpanData {
	if t == nil || traceID == "" {
		return nil
	}
	t.mu.Lock()
	var out []SpanData
	for i := range t.ring {
		if t.ring[i].TraceID == traceID {
			out = append(out, t.ring[i])
		}
	}
	t.mu.Unlock()
	for i := range out {
		out[i] = out[i].rendered()
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
		first, last time.Time // earliest start, latest end
		root        SpanData  // earliest parentless span, else earliest span
		hasRoot     bool
		spans       int
	}
	t.mu.Lock()
	groups := make(map[string]*agg)
	for i := range t.ring {
		sd := &t.ring[i]
		g := groups[sd.TraceID]
		if g == nil {
			g = &agg{first: sd.Start, last: sd.Start.Add(time.Duration(sd.DurationNs))}
			groups[sd.TraceID] = g
		}
		if sd.Start.Before(g.first) {
			g.first = sd.Start
		}
		if end := sd.Start.Add(time.Duration(sd.DurationNs)); end.After(g.last) {
			g.last = end
		}
		isRoot := sd.ParentID == ""
		switch {
		case isRoot && (!g.hasRoot || sd.Start.Before(g.root.Start)):
			g.root, g.hasRoot = *sd, true
		case !g.hasRoot && (g.spans == 0 || sd.Start.Before(g.root.Start)):
			g.root = *sd
		}
		g.spans++
	}
	t.mu.Unlock()
	out := make([]TraceSummary, 0, len(groups))
	for id, g := range groups {
		out = append(out, TraceSummary{
			TraceID:    id,
			Root:       g.root.Name,
			Node:       g.root.Node,
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

// OpenSpanLog creates (or truncates) a span log file.
func OpenSpanLog(path string) (*SpanLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewSpanLog(f), nil
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
