package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"matchsim/api"
	"matchsim/internal/jobs"
)

// journalFlight is the on-disk record of one in-flight solve: enough to
// re-attach to the worker job after a coordinator restart, or — when the
// worker no longer knows the job — to resubmit it from the freshest
// checkpoint. One file per flight, removed when the flight finishes.
type journalFlight struct {
	ID              string            `json:"id"`
	Key             string            `json:"key"`
	Request         api.SubmitRequest `json:"request"`
	Worker          string            `json:"worker,omitempty"`
	WorkerJobID     string            `json:"worker_job_id,omitempty"`
	Checkpoint      json.RawMessage   `json:"checkpoint,omitempty"`
	CheckpointIters int               `json:"checkpoint_iters,omitempty"`
	Jobs            []journalJob      `json:"jobs"`
}

// journalJob is one attached coordinator job inside a journalFlight.
type journalJob struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	// Traceparent re-parents the restored job's span under its original
	// trace, so the trace ID survives the coordinator restart.
	Traceparent string `json:"traceparent,omitempty"`
}

func (co *Coordinator) journalPath(f *flight) string {
	return filepath.Join(co.opts.StateDir, f.id+".json")
}

// journalLocked snapshots a flight's journal record. Caller holds mu.
func (co *Coordinator) journalLocked(f *flight) journalFlight {
	doc := journalFlight{
		ID:              f.id,
		Key:             f.key,
		Request:         f.req,
		Worker:          f.worker,
		WorkerJobID:     f.workerJobID,
		CheckpointIters: f.checkpointIters,
	}
	if len(f.checkpoint) > 0 {
		doc.Checkpoint = append(json.RawMessage(nil), f.checkpoint...)
	}
	for _, j := range f.attached {
		doc.Jobs = append(doc.Jobs, journalJob{
			ID:          j.id,
			Created:     j.created,
			Traceparent: j.span.Traceparent(),
		})
	}
	return doc
}

// writeJournal persists a flight's current record. Serialised per flight
// (jmu) so the watcher and a concurrently attaching Submit never
// interleave writes; a no-op once the flight finished (its file is being
// removed) or without a StateDir.
func (co *Coordinator) writeJournal(f *flight) {
	if co.opts.StateDir == "" {
		return
	}
	f.jmu.Lock()
	defer f.jmu.Unlock()
	co.mu.Lock()
	if f.finished {
		co.mu.Unlock()
		return
	}
	doc := co.journalLocked(f)
	f.dirty = false
	co.mu.Unlock()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		co.log.Warn("journal encode failed", "flight", f.id, "error", err)
		return
	}
	if err := os.MkdirAll(co.opts.StateDir, 0o755); err != nil {
		co.log.Warn("journal dir create failed", "dir", co.opts.StateDir, "error", err)
		return
	}
	if err := writeFileAtomic(co.journalPath(f), data); err != nil {
		co.log.Warn("journal write failed", "flight", f.id, "error", err)
	}
}

// maybeWriteJournal persists the flight only when its record changed
// since the last write (checkpoint refreshes, attach/detach).
func (co *Coordinator) maybeWriteJournal(f *flight) {
	if co.opts.StateDir == "" {
		return
	}
	co.mu.Lock()
	dirty := f.dirty
	co.mu.Unlock()
	if dirty {
		co.writeJournal(f)
	}
}

// removeJournal deletes a finished flight's file. Callers set f.finished
// under mu first, so no writer can resurrect it.
func (co *Coordinator) removeJournal(f *flight) {
	if co.opts.StateDir == "" {
		return
	}
	f.jmu.Lock()
	defer f.jmu.Unlock()
	if err := os.Remove(co.journalPath(f)); err != nil && !os.IsNotExist(err) {
		co.log.Warn("journal remove failed", "flight", f.id, "error", err)
	}
}

// writeFileAtomic writes via a unique temp file + rename, so a crash
// mid-write never leaves a torn journal and concurrent flights never
// collide on a temp name.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// probeWritableDir verifies a directory exists (creating it on demand)
// and accepts a write; backs the readiness check.
func probeWritableDir(dir string) error {
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

// Restore re-attaches the journalled flights of a previous coordinator
// process: each becomes a live flight again, polling its recorded worker
// job — and when the worker no longer knows it (a crash took both down,
// or the worker restarted), resubmitting from the journalled checkpoint.
// Restored jobs keep their IDs and trace IDs, so clients polling across
// the restart never notice beyond the gap. Call once, before serving.
// Returns the number of flights restored.
func (co *Coordinator) Restore() (int, error) {
	if co.opts.StateDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(co.opts.StateDir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(co.opts.StateDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			co.log.Warn("journal read failed", "file", path, "error", err)
			continue
		}
		var doc journalFlight
		if err := json.Unmarshal(data, &doc); err != nil || doc.ID == "" || len(doc.Jobs) == 0 {
			co.log.Warn("journal malformed; skipping", "file", path, "error", err)
			continue
		}
		if err := co.restoreFlight(doc); err != nil {
			co.log.Warn("journal restore failed", "file", path, "error", err)
			continue
		}
		restored++
	}
	if restored > 0 {
		co.log.Info("restored journalled flights", "count", restored)
	}
	return restored, nil
}

// restoreFlight rebuilds one flight and its attached jobs from a journal
// record and hands it to a watcher goroutine.
func (co *Coordinator) restoreFlight(doc journalFlight) error {
	f := &flight{
		id:              doc.ID,
		key:             doc.Key,
		req:             doc.Request,
		worker:          doc.Worker,
		workerJobID:     doc.WorkerJobID,
		checkpoint:      doc.Checkpoint,
		checkpointIters: doc.CheckpointIters,
		lastState:       api.StateQueued,
	}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return jobs.ErrShuttingDown
	}
	if co.flights[f.id] != nil {
		co.mu.Unlock()
		return fmt.Errorf("cluster: duplicate journalled flight %q", f.id)
	}
	for _, jj := range doc.Jobs {
		if co.jobs[jj.ID] != nil {
			continue
		}
		j := &cjob{
			id:      jj.ID,
			key:     doc.Key,
			solver:  doc.Request.Solver,
			state:   api.StateQueued,
			created: jj.Created,
			flight:  f,
		}
		co.registerLocked(j)
		if tr := co.opts.Tracer; tr != nil {
			// Re-parent under the original trace so the job keeps one
			// trace ID across the coordinator restart.
			_, span := tr.StartSpanRemote(context.Background(), "cluster-job", jj.Traceparent)
			span.SetAttr("job_id", j.id)
			span.SetAttr("solver", j.solver)
			span.SetAttr("restored", "true")
			j.span = span
			j.traceID = span.TraceID()
		}
		if f.tp == "" {
			f.tp = j.span.Traceparent()
		}
		f.attached = append(f.attached, j)
	}
	if len(f.attached) == 0 {
		co.mu.Unlock()
		return fmt.Errorf("cluster: journalled flight %q restored no jobs", f.id)
	}
	co.flights[f.id] = f
	if co.byKey[f.key] == nil {
		co.byKey[f.key] = f
	}
	co.wg.Add(1)
	co.mu.Unlock()
	go co.runFlight(f)
	return nil
}
