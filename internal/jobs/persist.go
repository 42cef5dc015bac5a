package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"matchsim/api"
)

// persistedJob is the on-disk form of a job interrupted by shutdown: the
// original request (so the job re-runs under its original id and cache
// key) plus, for MaTCH jobs that had completed at least one CE iteration,
// the checkpoint to resume from.
type persistedJob struct {
	ID      string            `json:"id"`
	Request api.SubmitRequest `json:"request"`
	Created time.Time         `json:"created"`
	// Checkpoint is the encoded core checkpoint, absent for jobs that
	// never started (still queued at shutdown) or whose solver does not
	// checkpoint.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// TraceParent carries the job's root span as a W3C traceparent value
	// so the resumed run continues the original trace across the daemon
	// restart.
	TraceParent string `json:"traceparent,omitempty"`
}

func persistFileName(id string) string { return id + ".json" }

// persistInterrupted writes every shutdown-interrupted job to the
// checkpoint directory: running jobs the shutdown cancelled (with their
// checkpoint when one exists) and jobs still queued. Jobs the user
// cancelled are final and are not persisted. Called after the worker pool
// has drained; the manager is closed so no lock is needed for job state,
// but we take it anyway for the race detector's benefit.
func (m *Manager) persistInterrupted() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var pending []*job
	for _, j := range m.jobs {
		if j.userCancelled || j.cacheHit {
			continue
		}
		switch {
		case j.state == api.StateQueued:
			pending = append(pending, j)
		case j.state == api.StateCancelled:
			// Cancelled by baseCancel during shutdown.
			pending = append(pending, j)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	if err := os.MkdirAll(m.opts.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("jobs: creating checkpoint dir: %w", err)
	}
	var firstErr error
	for _, j := range pending {
		p := persistedJob{ID: j.id, Request: j.req, Created: j.created, TraceParent: j.span.Traceparent()}
		j.span.Event("checkpoint", "has_state", fmt.Sprint(j.checkpoint != nil))
		if j.checkpoint != nil {
			enc, err := j.checkpoint.Encode()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			p.Checkpoint = enc
		}
		data, err := json.MarshalIndent(&p, "", "  ")
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		path := filepath.Join(m.opts.CheckpointDir, persistFileName(j.id))
		if err := WriteFileAtomic(path, data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WriteFileAtomic writes data to path via a uniquely named temp file in
// the same directory and a rename, so a crash mid-write never leaves a
// torn file for a restore to choke on, and concurrent writers never
// collide on a temp name. The temp file is removed on every failure.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".write-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
	}
	return err
}

// ProbeWritable verifies a directory exists (creating it on demand) and
// accepts a write; it backs the readiness checks of both serving tiers.
func ProbeWritable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".readyz-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

func removePersisted(path string) { _ = os.Remove(path) }

// Restore loads every persisted job from the checkpoint directory and
// re-enqueues it under its original id — MaTCH jobs with a checkpoint
// resume mid-run rather than restarting. Call it once, right after New
// (the workers are already draining, so enqueueing cannot deadlock even
// when more jobs are restored than the queue holds... restored jobs are
// enqueued one at a time as capacity frees). Unreadable or invalid files
// are skipped and reported in the returned error; valid jobs still run.
// Each job's file is deleted once the job reaches a terminal state, so a
// later shutdown re-persists only what is interrupted again.
func (m *Manager) Restore() (int, error) {
	if m.opts.CheckpointDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(m.opts.CheckpointDir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var restored int
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, entry := range entries {
		name := entry.Name()
		if entry.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(m.opts.CheckpointDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
			continue
		}
		var p persistedJob
		if err := json.Unmarshal(data, &p); err != nil {
			fail(fmt.Errorf("jobs: corrupt checkpoint file %s: %w", name, err))
			continue
		}
		if err := m.restoreOne(&p, path); err != nil {
			fail(fmt.Errorf("jobs: restoring %s: %w", name, err))
			continue
		}
		restored++
	}
	return restored, firstErr
}

func (m *Manager) restoreOne(p *persistedJob, path string) error {
	if p.ID == "" {
		return fmt.Errorf("persisted job without id")
	}
	// The job keeps its original request's identity; the persisted
	// checkpoint, when there is one, is the later state to resume from.
	req := p.Request
	log := m.log.With("id", p.ID)
	problem, resumeFrom, key, err := Admit(&req, log)
	if err != nil {
		return err
	}
	if len(p.Checkpoint) > 0 {
		later := req
		later.Checkpoint = p.Checkpoint
		if resumeFrom, err = decodeResume(problem, &later, log); err != nil {
			return err
		}
	}
	j := &job{
		id:          p.ID,
		key:         key,
		solver:      req.Solver,
		req:         req,
		problem:     problem,
		tasks:       problem.NumTasks(),
		created:     p.Created,
		resumed:     true,
		resumeFrom:  resumeFrom,
		persistPath: path,
	}
	if j.created.IsZero() {
		j.created = time.Now()
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrShuttingDown
	}
	if m.jobs[j.id] != nil {
		m.mu.Unlock()
		return fmt.Errorf("duplicate job id %s", j.id)
	}
	j.state = api.StateQueued
	m.register(j)
	if tr := m.opts.Tracer; tr != nil {
		// Continue the pre-restart trace: the resumed job's span is a
		// remote child of the span persisted at checkpoint time (or a
		// fresh root when the job predates tracing).
		_, span := tr.StartSpanRemote(context.Background(), "job", p.TraceParent)
		span.SetAttr("job_id", j.id)
		span.SetAttr("solver", j.solver)
		span.SetAttr("resumed", "true")
		span.Event("resume", "checkpointed", fmt.Sprint(j.resumeFrom != nil))
		j.span = span
		j.traceID = span.TraceID()
		j.queueSpan = span.Child("queue")
	}
	m.mu.Unlock()

	// Blocking send: the worker pool is live, so the queue drains even
	// when the restored set exceeds its capacity.
	m.queue <- j
	return nil
}
