package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {19, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// At the chosen quantile exactly ten of 100 samples lie above.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	q := quantile(xs, tailQuantile(len(xs)))
	beyond := 0
	for _, x := range xs {
		if x > q {
			beyond++
		}
	}
	if q != 90 || beyond != minBeyond {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with %d", q, beyond, minBeyond)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A generator that stalls must charge the stall to every operation it
// delayed, as latency timed from the scheduled send and as lag.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const stall = 80 * time.Millisecond
	at := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 400 * time.Millisecond}
	calls := 0
	wait := func(due time.Time) {
		calls++
		if calls == 2 {
			time.Sleep(stall) // the generator is descheduled
		}
		time.Sleep(time.Until(due))
	}
	ops := runOpenLoop(time.Now(), at, wait, func(i int, op *opRecord) {
		time.Sleep(5 * time.Millisecond)
		op.Done = time.Now()
	})
	for i, op := range ops {
		late := i == 1 || i == 2
		if got := op.lag() >= stall-20*time.Millisecond; got != late {
			t.Errorf("op %d: lag %v, want stalled=%v", i, op.lag(), late)
		}
		if op.latency() < op.lag()+5*time.Millisecond {
			t.Errorf("op %d: latency %v does not include lag %v plus service time", i, op.latency(), op.lag())
		}
	}
	if ops[3].lag() > 20*time.Millisecond {
		t.Errorf("op 3 was due after the stall ended but lagged %v", ops[3].lag())
	}
}

func TestBlockingPathCountsOverlappingChildrenOnce(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := func(id, parent, layer string, from, to int) span {
		return span{TraceID: "t", SpanID: id, ParentID: parent, Layer: layer,
			Start: at(from), DurationNs: int64(time.Duration(to-from) * time.Millisecond)}
	}
	spans := []span{
		sp("root", "", "bench", 0, 100),
		// Two overlapping children: together they cover 20..80.
		sp("a", "root", "httpapi", 20, 60),
		sp("b", "root", "jobs", 40, 80),
		// A grandchild that outlives its parent still blocks the root.
		sp("c", "a", "core", 50, 90),
	}
	path := blockingPath(spans, "root")
	var total time.Duration
	for _, d := range path {
		total += d
	}
	if total != 100*time.Millisecond {
		t.Errorf("layers sum to %v, want the root's 100ms", total)
	}
	// Root self: 0..20 and 90..100. c covers 50..90, a 20..50; b is hidden
	// behind c.
	want := map[string]time.Duration{"bench": 30 * time.Millisecond, "httpapi": 30 * time.Millisecond,
		"core": 40 * time.Millisecond}
	for l, d := range want {
		if path[l] != d {
			t.Errorf("layer %s = %v, want %v (path %v)", l, path[l], d, path)
		}
	}
	if path["jobs"] != 0 {
		t.Errorf("jobs = %v, want 0: its interval is covered", path["jobs"])
	}
}

// TestSmoke runs every workload briefly, traced, against a freshly built
// matchd, and checks that each metric BENCHMARK.json names is emitted
// with its unit and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts matchd processes")
	}
	def, err := readBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for _, e := range def.EndToEnd {
		if units[e.Name] != e.Unit {
			t.Errorf("BENCHMARK.json end-to-end %s [%s]: benchmark emits [%s]", e.Name, e.Unit, units[e.Name])
		}
	}
	for _, e := range def.PerLayer {
		if units[e.Name] != e.Unit {
			t.Errorf("BENCHMARK.json per-layer %s [%s]: benchmark emits [%s]", e.Name, e.Unit, units[e.Name])
		}
	}
	if len(def.EndToEnd) != len(endToEnd) || len(def.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, benchmark emits %d+%d",
			len(def.EndToEnd), len(def.PerLayer), len(endToEnd), len(perLayer))
	}

	bin := filepath.Join(t.TempDir(), "matchd")
	if out, err := exec.Command("go", "build", "-o", bin, "matchsim/cmd/matchd").CombinedOutput(); err != nil {
		t.Fatalf("build matchd: %v\n%s", err, out)
	}
	start := time.Now()
	for _, w := range workloads {
		w, window := w.smoke()
		cfg := runConfig{Seed: 7, Seconds: window, Trace: true, Smoke: true, Matchd: bin}
		res, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, correct %v: %v", w.Name, res.Attempted, res.Failed, res.Correct, res.Failures)
		}
		for _, e := range def.EndToEnd {
			if _, ok := res.EndToEnd[e.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", w.Name, e.Name)
			}
		}
		for _, e := range def.PerLayer {
			if _, ok := res.PerLayer[e.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.Name, e.Name)
			}
		}
		if res.PerLayer["bench.spans_missing"] != 0 {
			t.Errorf("%s: %v spans missing", w.Name, res.PerLayer["bench.spans_missing"])
		}
	}
	if d := time.Since(start); d > 40*time.Second {
		t.Errorf("smoke runs took %v", d)
	}
}
