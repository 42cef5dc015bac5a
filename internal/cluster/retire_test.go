package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/client"
	"matchsim/internal/httpapi"
	"matchsim/internal/jobs"
	"matchsim/internal/memcheck"
)

// TestRetiredJobHTTP: on both tiers, once a finished job is retired from
// the store, every lookup of its id answers 404 with code job_retired —
// status, long-poll status, result and cancel, and on a worker also the
// checkpoint and the SSE events route — while a never-issued id answers
// a plain 404. The job is retired by RetainFinished later cache hits of
// the same submission, each of which is a job that finishes at once.
func TestRetiredJobHTTP(t *testing.T) {
	tiers := []struct {
		name  string
		start func(t *testing.T) (string, httpapi.Backend)
		paths []string
	}{
		{"worker", func(t *testing.T) (string, httpapi.Backend) {
			m := jobs.New(jobs.Options{Workers: 1})
			ts := httptest.NewServer(httpapi.New(m))
			t.Cleanup(func() {
				ts.Close()
				m.Shutdown(context.Background())
			})
			return ts.URL, m
		}, []string{"GET /v1/jobs/{id}/checkpoint", "GET /v1/jobs/{id}/events"}},
		{"coordinator", func(t *testing.T) (string, httpapi.Backend) {
			co := newTestCoordinator(t, startWorkers(t, 1), Options{})
			ts := httptest.NewServer(NewServer(co))
			t.Cleanup(ts.Close)
			return ts.URL, co
		}, nil},
	}
	shared := []string{"GET /v1/jobs/{id}", "GET /v1/jobs/{id}?state=running&wait=1s",
		"GET /v1/jobs/{id}/result", "DELETE /v1/jobs/{id}"}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			url, backend := tier.start(t)
			ctx := context.Background()
			req := api.SubmitRequest{Instance: instanceJSON(t, 3, 8), Solver: api.SolverGreedy}
			info, err := backend.SubmitCtx(ctx, req)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			old := info.ID
			if info, err = client.New(url).Wait(ctx, old, 2*time.Millisecond); err != nil || info.State != api.StateDone {
				t.Fatalf("Wait: %+v, %v", info, err)
			}
			for range jobs.RetainFinished {
				if hit, err := backend.SubmitCtx(ctx, req); err != nil || !hit.CacheHit {
					t.Fatalf("resubmission: %+v, %v; want a cache hit", hit, err)
				}
			}
			check := func(route, id, wantCode string) {
				method, path, _ := strings.Cut(route, " ")
				req, err := http.NewRequest(method, url+strings.ReplaceAll(path, "{id}", id), nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var doc api.Error
				if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
					t.Errorf("%s: decoding the error body: %v", route, err)
				}
				if resp.StatusCode != http.StatusNotFound || doc.Code != wantCode || doc.Message == "" {
					t.Errorf("%s: %d %+v, want 404 with code %q", route, resp.StatusCode, doc, wantCode)
				}
			}
			for _, route := range append(shared, tier.paths...) {
				check(route, old, api.CodeJobRetired)
				check(route, "jmissing", "")
			}
		})
	}
}

// TestCoordinatorHandlesWorkerRetiredJob: when a worker retires a routed
// job before the coordinator has fetched its result, the flight
// resubmits (reason worker-retired) and finishes from the worker's
// result cache with the same answer.
func TestCoordinatorHandlesWorkerRetiredJob(t *testing.T) {
	m := jobs.New(jobs.Options{Workers: 1})
	surface := httpapi.New(m)
	doc := instanceJSON(t, 4, 10)
	req := api.SubmitRequest{Instance: doc, Solver: api.SolverGreedy}
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			// Before the first result fetch, finish RetainFinished cache
			// hits of the same submission on the worker: the routed job
			// is retired under the coordinator's feet.
			once.Do(func() {
				for range jobs.RetainFinished {
					if _, err := m.Submit(req); err != nil {
						t.Errorf("worker Submit: %v", err)
					}
				}
			})
		}
		surface.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		m.Shutdown(context.Background())
	})
	co := newTestCoordinator(t, []*testWorker{{m: m, ts: ts}}, Options{})
	info, err := co.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if final := waitDone(t, co, info.ID); final.State != api.StateDone {
		t.Fatalf("job ended %q (error %q)", final.State, final.Error)
	}
	got, err := co.Result(info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	p, err := matchsim.ReadProblem(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want, err := matchsim.SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Mapping, want.Mapping) || got.Exec != want.Exec {
		t.Errorf("result %v (exec %v), want %v (exec %v)", got.Mapping, got.Exec, want.Mapping, want.Exec)
	}
	if n := metricValue(t, coordinatorMetrics(t, co), `matchd_cluster_handoffs_total{reason="worker-retired"}`); n != 1 {
		t.Errorf("worker-retired handoffs = %v, want 1", n)
	}
}

// TestCoordinatorFinishedJobsHeapBound: 40 finished n=256 greedy jobs
// routed through a coordinator to one worker, with both result caches
// off, keep at most 64 KB of heap each across both tiers.
func TestCoordinatorFinishedJobsHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const n, perJob = 40, 64 << 10
	doc := instanceJSON(t, 11, 256)
	w := startWorker(t, jobs.Options{Workers: 2, CacheCapacity: -1}, nil)
	co := newTestCoordinator(t, []*testWorker{w}, Options{CacheCapacity: -1})
	submit := func(seed uint64) string {
		info, err := co.Submit(api.SubmitRequest{Instance: bytes.Clone(doc), Solver: api.SolverGreedy,
			Options: api.SolverOptions{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	// One job first, so the baseline already holds the lazily built
	// state of both tiers (metric series, HTTP connections).
	waitDone(t, co, submit(0))
	before := memcheck.HeapAfterGC()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submit(uint64(i + 1))
	}
	for _, id := range ids {
		if info := waitDone(t, co, id); info.State != api.StateDone {
			t.Fatalf("job %s ended %q (error %q)", id, info.State, info.Error)
		}
	}
	after := memcheck.HeapAfterGC()
	runtime.KeepAlive(doc) // part of both readings
	per := (int64(after) - int64(before)) / n
	t.Logf("heap after GC: %d -> %d bytes, %d bytes per finished job", before, after, per)
	if per > perJob {
		t.Errorf("%d finished jobs hold %d bytes each, want at most %d", n, per, perJob)
	}
}
