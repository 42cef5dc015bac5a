package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"matchsim/api"
)

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "" {
		t.Errorf("empty input: %q, want empty", got)
	}
	if got := sparkline([]float64{1, 2, 3}, 0); got != "" {
		t.Errorf("zero width: %q, want empty", got)
	}
	// A monotone ramp must start at the lowest block and end at the highest.
	got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp: %q, want full block ramp", got)
	}
	// Flat input renders mid-blocks, not a divide-by-zero artifact.
	flat := sparkline([]float64{5, 5, 5}, 8)
	if strings.ContainsAny(flat, "▁█") || len([]rune(flat)) != 3 {
		t.Errorf("flat: %q, want three mid-height blocks", flat)
	}
	// Width caps the window to the most recent values.
	tail := sparkline([]float64{9, 9, 9, 0, 8}, 2)
	if tail != "▁█" {
		t.Errorf("window: %q, want last two values scaled", tail)
	}
}

func TestTopModelObserveAndRender(t *testing.T) {
	m := &topModel{}
	m.observe(api.Event{Kind: "start", Solver: "match", Tasks: 24, Seed: 7})
	m.observe(api.Event{
		Kind: "iter", Iter: 0, Best: 120, BestSoFar: 120, Gamma: 150,
		Elite: 12, Draws: 1000,
		RejectTries: 1500, FallbackDraws: 10,
		SampleNs: 2_000_000, SelectNs: 100_000, UpdateNs: 50_000,
		StealUnits: 3, IdleNs: 400_000,
	})
	m.observe(api.Event{Kind: "iter", Iter: 1, Best: 110, BestSoFar: 110, Gamma: 130, Draws: 1000})

	frame := m.render()
	for _, want := range []string{
		"match", "tasks=24", "seed=7", "[running]",
		"iter 1", "best-so-far", "gamma",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	if len(m.bestHist) != 2 || m.bestHist[1] != 110 {
		t.Errorf("bestHist = %v, want [120 110]", m.bestHist)
	}

	m.observe(api.Event{Kind: "end", Exec: 109.5, Iterations: 2, Evaluations: 2000,
		MappingTime: 3_000_000, StopReason: "argmax-stable"})
	frame = m.render()
	if !strings.Contains(frame, "[finished]") || !strings.Contains(frame, "argmax-stable") {
		t.Errorf("end frame missing terminal state:\n%s", frame)
	}

	// A fresh start event resets the model for the next run on the stream.
	m.observe(api.Event{Kind: "start", Solver: "ga", Tasks: 8, Seed: 1})
	if m.iters != 0 || m.end != nil || len(m.bestHist) != 0 {
		t.Errorf("start did not reset model: iters=%d end=%v hist=%v", m.iters, m.end, m.bestHist)
	}
}

func TestTopModelRenderPhaseAndSamplerLines(t *testing.T) {
	m := &topModel{}
	m.observe(api.Event{Kind: "start", Solver: "match", Tasks: 10, Seed: 2})
	m.observe(api.Event{
		Kind: "iter", Draws: 200, RejectTries: 300, FallbackDraws: 1,
		SampleNs: 1_000_000, SelectNs: 1_000, UpdateNs: 1_000,
	})
	frame := m.render()
	if !strings.Contains(frame, "sampler reject 1.50/draw   fallback 0.50%") {
		t.Errorf("frame missing sampler line:\n%s", frame)
	}
	if !strings.Contains(frame, "phases  sample 1ms") {
		t.Errorf("frame missing phase timings:\n%s", frame)
	}
	// GA generations carry no phase timings; the line must be absent.
	m.observe(api.Event{Kind: "iter", Draws: 200})
	if frame = m.render(); strings.Contains(frame, "phases") {
		t.Errorf("phase line rendered without timings:\n%s", frame)
	}
}

// TestTailTraceReplaysFile feeds a complete recorded trace through the
// tail follower and checks the model saw every event and the follower
// returned at the end marker without waiting for more data.
func TestTailTraceReplaysFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	lines := []string{
		`{"kind":"start","solver":"match","tasks":12,"seed":5}`,
		`{"kind":"iter","iter":0,"gamma":90,"best":80,"best_so_far":80,"draws":288}`,
		`{"kind":"iter","iter":1,"gamma":85,"best":78,"best_so_far":78,"draws":288}`,
		`{"kind":"end","exec":77.5,"iterations":2,"evaluations":576,"stop_reason":"argmax-stable"}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := &topModel{}
	var draws int
	err := tailTrace(context.Background(), path, m, func(bool) { draws++ })
	if err != nil {
		t.Fatalf("tailTrace: %v", err)
	}
	if m.iters != 2 || m.end == nil || m.solver != "match" {
		t.Errorf("model state iters=%d end=%v solver=%q, want full replay", m.iters, m.end, m.solver)
	}
	if m.end.Exec != 77.5 {
		t.Errorf("end exec = %v, want 77.5", m.end.Exec)
	}
	if draws == 0 {
		t.Error("draw callback never invoked")
	}
}

func TestTailTraceMalformedLine(t *testing.T) {
	cases := []struct {
		name, line, want string
	}{
		{"not json", `{not json}`, "malformed trace line"},
		{"negative iter", `{"kind":"iter","seed":0,"iter":-1}`, "negative iter"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		if err := os.WriteFile(path, []byte(c.line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := tailTrace(context.Background(), path, &topModel{}, func(bool) {})
		if err == nil {
			t.Errorf("%s: tailTrace accepted the line", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestFrameWriterNonTTYAppends(t *testing.T) {
	var sb strings.Builder
	fw := &frameWriter{out: &sb, tty: false}
	fw.draw("a\nb\n")
	fw.draw("c\n")
	out := sb.String()
	if strings.Contains(out, "\x1b[") {
		t.Errorf("non-TTY output contains ANSI escapes: %q", out)
	}
	if !strings.Contains(out, "a\nb\n") || !strings.Contains(out, "c\n") {
		t.Errorf("frames not appended: %q", out)
	}
}

func TestFrameWriterTTYRedrawsInPlace(t *testing.T) {
	var sb strings.Builder
	fw := &frameWriter{out: &sb, tty: true}
	fw.draw("a\nb\n")
	fw.draw("c\n")
	out := sb.String()
	if !strings.Contains(out, "\x1b[2A\x1b[J") {
		t.Errorf("second frame did not rewind over the first: %q", out)
	}
}
