package trace

import (
	"bytes"
	"strings"
	"testing"

	"matchsim/api"
)

// FuzzTraceReader feeds arbitrary byte streams to Read. It must never
// panic; when it accepts a stream, every replayed event must pass
// Validate and re-emitting the runs through a Writer must produce a
// stream Read accepts again (the reader and writer agree on the schema).
func FuzzTraceReader(f *testing.F) {
	f.Add([]byte(`{"kind":"start","solver":"match","tasks":4,"seed":7,"iter":0}
{"kind":"iter","seed":0,"iter":0,"gamma":101.5,"best":90,"worst":140,"mean":110,"best_so_far":90,"elite":10,"draws":200}
{"kind":"iter","seed":0,"iter":1,"gamma":99,"best":88,"best_so_far":88}
{"kind":"end","seed":0,"iter":0,"exec":88,"iterations":2,"evaluations":400,"mapping_time_ns":12345,"stop_reason":"gamma-stall"}
`))
	f.Add([]byte(`{"kind":"start","solver":"ga","seed":0,"iter":0}
{"kind":"iter","seed":0,"iter":0,"best":50}
`)) // crashed run: no end event
	f.Add([]byte(`{"kind":"iter","seed":0,"iter":-1}` + "\n"))
	f.Add([]byte(`{"kind":"end","seed":0,"iter":0}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"kind":"start","seed":0,"iter":0}` + "\n" + `{"kind":"it`)) // torn tail
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, run := range runs {
			events := append([]api.Event{run.Start}, run.Iterations...)
			if run.End != nil {
				events = append(events, *run.End)
			}
			for _, e := range events {
				if verr := e.Validate(); verr != nil {
					t.Fatalf("Read accepted an event Validate rejects: %v\nstream: %q", verr, data)
				}
				if werr := w.Emit(e); werr != nil {
					t.Fatalf("Read accepted an event Emit rejects: %v\nstream: %q", werr, data)
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if _, err := Read(strings.NewReader(buf.String())); err != nil {
			t.Fatalf("re-emitted stream rejected: %v\nstream: %q", err, buf.String())
		}
	})
}
