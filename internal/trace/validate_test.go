package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"matchsim/api"
)

func TestWriterRejectsInvalidEvents(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cases := []struct {
		name string
		e    api.Event
		want string
	}{
		{"no kind", api.Event{}, "without kind"},
		{"unknown kind", api.Event{Kind: "progress"}, "unknown event kind"},
		{"NaN gamma", api.Event{Kind: api.KindIteration, Gamma: math.NaN()}, "non-finite gamma"},
		{"Inf exec", api.Event{Kind: api.KindEnd, Exec: math.Inf(1)}, "non-finite exec"},
		{"-Inf best", api.Event{Kind: api.KindIteration, Best: math.Inf(-1)}, "non-finite best"},
		{"negative iter", api.Event{Kind: api.KindIteration, Iter: -3}, "negative iter"},
		{"negative iterations", api.Event{Kind: api.KindEnd, Iterations: -1}, "negative iterations"},
		{"negative mapping time", api.Event{Kind: api.KindEnd, MappingTime: -5}, "negative mapping_time_ns"},
	}
	for _, c := range cases {
		err := w.Emit(c.e)
		if err == nil {
			t.Errorf("%s: Emit accepted the event", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if w.Err() != nil {
		t.Fatalf("validation failures must not stick: %v", w.Err())
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected events reached the stream: %q", buf.String())
	}
	if err := w.Start("match", 4, 0); err != nil {
		t.Fatalf("valid event rejected after failures: %v", err)
	}
}

func TestReadRejectsCorruptValues(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{
			"negative iteration index",
			`{"kind":"start","solver":"match","seed":1,"iter":0}` + "\n" +
				`{"kind":"iter","seed":0,"iter":-7}` + "\n",
			"negative iter",
		},
		{
			"negative iteration on final line",
			`{"kind":"start","solver":"match","seed":1,"iter":0}` + "\n" +
				`{"kind":"iter","seed":0,"iter":-1}`,
			"negative iter",
		},
		{
			"negative evaluations in end event",
			`{"kind":"start","solver":"match","seed":1,"iter":0}` + "\n" +
				`{"kind":"end","seed":0,"iter":0,"evaluations":-2}` + "\n",
			"negative evaluations",
		},
		{
			"unknown kind",
			`{"kind":"banana","seed":0,"iter":0}` + "\n",
			"unknown event kind",
		},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: Read accepted the stream", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestReadStillToleratesTornFinalLine(t *testing.T) {
	input := `{"kind":"start","solver":"match","seed":1,"iter":0}` + "\n" +
		`{"kind":"iter","seed":0,"iter":0,"gamma":12}` + "\n" +
		`{"kind":"iter","seed":0,"it` // torn mid-write
	runs, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("torn final line must stay tolerated: %v", err)
	}
	if len(runs) != 1 || len(runs[0].Iterations) != 1 || runs[0].End != nil {
		t.Fatalf("unexpected replay: %+v", runs)
	}
}
