package jobs

import (
	"bytes"
	"io"
	"log/slog"
	"runtime"
	"testing"

	"matchsim/api"
	"matchsim/internal/gen"
	"matchsim/internal/graph"
	"matchsim/internal/memcheck"
)

// TestBlockInstanceHeapBound: a hierarchical n=4096 gen.LargeInstance
// document is under 2 MiB, jobs.Admit accepts it, and the problem it
// decodes holds under 4 MB. The platform is a block platform: 4096
// cluster labels and a 64 x 64 cost table. As an n x n matrix its link
// costs alone were 128 MiB, and the document about 169 MB.
func TestBlockInstanceHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const n, docLimit, heapLimit = 4096, 2 << 20, 4_000_000
	inst, err := gen.LargeInstance(2005, n, gen.LargeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := graph.WriteInstance(&doc, inst); err != nil {
		t.Fatal(err)
	}
	inst = nil
	if doc.Len() >= docLimit {
		t.Errorf("n=%d document is %d bytes, want under %d", n, doc.Len(), docLimit)
	}
	req := &api.SubmitRequest{Instance: doc.Bytes(), Solver: api.SolverMaTCH}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	before := memcheck.HeapAfterGC()
	problem, _, _, err := Admit(req, log)
	after := memcheck.HeapAfterGC()
	if err != nil {
		t.Fatalf("Admit rejected the n=%d document: %v", n, err)
	}
	runtime.KeepAlive(problem)
	held := int64(after) - int64(before)
	t.Logf("n=%d: document %d bytes, decoded problem holds %d bytes", n, doc.Len(), held)
	if held > heapLimit {
		t.Errorf("decoded n=%d problem holds %d bytes, want under %d", n, held, heapLimit)
	}
}
