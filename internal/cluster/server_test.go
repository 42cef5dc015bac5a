package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"matchsim/api"
	"matchsim/client"
	"matchsim/internal/httpapi"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
)

// tierFixture is one serving tier behind its real HTTP surface.
type tierFixture struct {
	url    string
	tracer *telemetry.Tracer
	// shutdown stops the backend and leaves the HTTP server up.
	shutdown func()
	// job is the id of a long-running job a case's setup submitted.
	job string
}

// contractTiers are the two serving tiers the HTTP contract covers: a
// worker (jobs.Manager) and a coordinator over one worker.
var contractTiers = []struct {
	name  string
	start func(t *testing.T) *tierFixture
}{
	{"worker", func(t *testing.T) *tierFixture {
		tr := telemetry.NewTracer(telemetry.TracerOptions{Node: "worker"})
		m := jobs.New(jobs.Options{Workers: 1, Tracer: tr})
		ts := httptest.NewServer(httpapi.New(m))
		t.Cleanup(func() {
			ts.Close()
			m.Shutdown(context.Background())
		})
		return &tierFixture{url: ts.URL, tracer: tr, shutdown: func() { m.Shutdown(context.Background()) }}
	}},
	{"coordinator", func(t *testing.T) *tierFixture {
		tr := telemetry.NewTracer(telemetry.TracerOptions{Node: "coordinator"})
		co := newTestCoordinator(t, startWorkers(t, 1), Options{Tracer: tr})
		ts := httptest.NewServer(NewServer(co))
		t.Cleanup(ts.Close)
		return &tierFixture{url: ts.URL, tracer: tr, shutdown: func() { co.Shutdown(context.Background()) }}
	}},
}

// submitLong submits a job that runs until cancelled and records its id
// in f.job; the job is cancelled when the test ends.
func submitLong(t *testing.T, f *tierFixture) {
	t.Helper()
	c := client.New(f.url)
	info, err := c.Submit(context.Background(), api.SubmitRequest{
		Instance: instanceJSON(t, 8, 28), Solver: api.SolverMaTCH,
		Options: api.SolverOptions{Seed: 1, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	f.job = info.ID
	t.Cleanup(func() { c.Cancel(context.Background(), info.ID) })
}

// TestHTTPContract sends the same requests to a worker and to a
// coordinator and expects the same answers: status code, api.Error body
// and Retry-After header. Each case gets fresh servers.
func TestHTTPContract(t *testing.T) {
	const traceparent = "00-aabbccddeeff00112233445566778899-0011223344556677-01"
	cases := []struct {
		name        string
		setup       func(t *testing.T, f *tierFixture)
		method      string
		path        string // "{job}" is replaced by the setup's job id
		body        string
		traceparent string
		status      int
		retryAfter  string
	}{
		{name: "status of unknown id", method: "GET", path: "/v1/jobs/jmissing", status: 404},
		{name: "result of unknown id", method: "GET", path: "/v1/jobs/jmissing/result", status: 404},
		{name: "cancel of unknown id", method: "DELETE", path: "/v1/jobs/jmissing", status: 404},
		{name: "result before done", setup: submitLong, method: "GET", path: "/v1/jobs/{job}/result", status: 409},
		{
			name:   "submit after shutdown",
			setup:  func(_ *testing.T, f *tierFixture) { f.shutdown() },
			method: "POST", path: "/v1/jobs",
			body:   `{"instance":` + string(instanceJSON(t, 1, 8)) + `,"solver":"match"}`,
			status: 503, retryAfter: "1",
		},
		{name: "malformed submit body", method: "POST", path: "/v1/jobs", body: `{"instance":`, status: 400},
		{name: "empty batch", method: "POST", path: "/v1/jobs:batch", body: `{"jobs":[]}`, status: 400},
		{name: "zero trace limit", method: "GET", path: "/v1/traces?limit=0", status: 400},
		{name: "malformed wait", setup: submitLong, method: "GET", path: "/v1/jobs/{job}?state=running&wait=abc", status: 400},
		{name: "trace listing with traceparent", method: "GET", path: "/v1/traces", traceparent: traceparent, status: 200},
	}
	for _, tier := range contractTiers {
		for _, tc := range cases {
			t.Run(tier.name+"/"+tc.name, func(t *testing.T) {
				f := tier.start(t)
				if tc.setup != nil {
					tc.setup(t, f)
				}
				req, err := http.NewRequest(tc.method, f.url+strings.ReplaceAll(tc.path, "{job}", f.job), strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				if tc.traceparent != "" {
					req.Header.Set("traceparent", tc.traceparent)
				}
				spans := f.tracer.Started()
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
				}
				if got := resp.Header.Get("Retry-After"); got != tc.retryAfter {
					t.Errorf("Retry-After %q, want %q", got, tc.retryAfter)
				}
				if tc.status >= 400 {
					var doc api.Error
					dec := json.NewDecoder(resp.Body)
					dec.DisallowUnknownFields()
					if err := dec.Decode(&doc); err != nil || doc.Message == "" {
						t.Errorf("error body %+v (decode error %v), want an api.Error document", doc, err)
					}
				}
				if tc.traceparent != "" {
					if n := f.tracer.Started() - spans; n != 0 {
						t.Errorf("request opened %d spans, want none", n)
					}
				}
			})
		}
	}
}
