package telemetry

import (
	"slices"
	"strconv"
	"sync"
)

// Iter is one CE iteration as a compact numeric record (136 bytes): every
// iteration field of an api.Event and the iteration's offset from the
// start of the span that reads it. The γ quantile of eq. (10), the
// iteration's best, worst and mean score, the best so far, the elite size,
// the samples drawn, the GenPerm sampler counters, the sample, select,
// update and idle times, the steal units and the island exchange counters
// are all kept as numbers; the span read paths render them as string
// attributes and a job's history as api.Events.
//
// The int32 fields hold counts bounded by the samples or islands a run
// keeps in memory at once: a value of 2^31 would need billions of
// mappings resident, so the narrowing cannot lose a value any run
// produces.
type Iter struct {
	I             int
	Draws         int
	Gamma         float64
	Best          float64
	Worst         float64
	Mean          float64
	BestSoFar     float64
	RejectTries   uint64
	FallbackDraws uint64
	SampleNs      int64
	SelectNs      int64
	UpdateNs      int64
	IdleNs        int64
	OffsetNs      int64
	Elite         int32
	StealUnits    int32
	Island        int32
	MigrantsIn    int32
	MigrantsOut   int32
	BlendRounds   int32
}

// event renders the record as the span's "iter" event, whose attributes
// are the iteration index, γ, the best so far, the draws and the three
// phase times.
func (it *Iter) event() SpanEvent {
	return SpanEvent{Name: "iter", OffsetNs: it.OffsetNs, Attrs: map[string]string{
		"i":           strconv.Itoa(it.I),
		"gamma":       strconv.FormatFloat(it.Gamma, 'g', -1, 64),
		"best_so_far": strconv.FormatFloat(it.BestSoFar, 'g', -1, 64),
		"draws":       strconv.Itoa(it.Draws),
		"sample_ns":   strconv.FormatInt(it.SampleNs, 10),
		"select_ns":   strconv.FormatInt(it.SelectNs, 10),
		"update_ns":   strconv.FormatInt(it.UpdateNs, 10),
	}}
}

// IterLog is the one store of a run's CE-iteration records. It keeps the
// first max records appended and only counts the rest, so a run of any
// length holds at most max records. A job's event history replays its
// iteration events from the log, and the job's solve span renders its
// "iter" events from the same records (Span.SetIterLog). IterLog is safe
// for concurrent use. A kept record never changes, so a slice Records
// returned stays valid while later records are appended.
type IterLog struct {
	mu    sync.Mutex
	recs  []Iter
	max   int
	total int
}

// NewIterLog returns an empty log that keeps the first max records.
func NewIterLog(max int) *IterLog {
	return &IterLog{max: max}
}

// Append records one iteration. Past the first max it is only counted.
func (l *IterLog) Append(it Iter) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) < l.max {
		l.recs = append(l.recs, it)
	}
	l.total++
}

// Records returns the kept records, oldest first, and the number of
// records ever appended. The caller must not modify the slice. A nil log
// has none.
func (l *IterLog) Records() ([]Iter, int) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clip(l.recs), l.total
}

// Clip drops the log's append slack, for a run that has ended: the log
// then holds its records in exactly as much memory as they need. A nil
// log is left alone.
func (l *IterLog) Clip() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(l.recs) > len(l.recs) {
		l.recs = slices.Clone(l.recs)
	}
}

// Spare returns the records the log has room for beyond those it holds:
// its append slack, none once clipped (0 on a nil log).
func (l *IterLog) Spare() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return cap(l.recs) - len(l.recs)
}
