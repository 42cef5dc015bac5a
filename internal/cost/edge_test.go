package cost

import (
	"math"
	"strings"
	"testing"

	"matchsim/internal/graph"
)

// Edge cases for the cost kernels: degenerate graphs that the random
// instance generators never produce but the public constructors allow.

func TestSelfLoopEdgesAreRejected(t *testing.T) {
	tig := graph.NewTIGWithWeights([]float64{1, 2})
	err := tig.AddEdge(1, 1, 5)
	if err == nil {
		t.Fatal("AddEdge accepted a self-loop")
	}
	if !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("self-loop error %q does not say so", err)
	}
	if tig.M() != 0 {
		t.Fatalf("rejected edge was stored: M = %d", tig.M())
	}
}

func TestZeroWeightTasksAreCommOnly(t *testing.T) {
	// All compute weights zero: Exec is pure communication.
	tig := graph.NewTIGWithWeights([]float64{0, 0, 0})
	tig.MustAddEdge(0, 1, 10)
	tig.MustAddEdge(1, 2, 20)
	r := graph.NewResourceGraphWithCosts([]float64{1, 2, 3})
	r.MustAddLink(0, 1, 1)
	r.MustAddLink(0, 2, 2)
	r.MustAddLink(1, 2, 3)
	e, err := NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	// Identity mapping: load_0 = 10*c01 = 10, load_1 = 10 + 20*c12 = 70,
	// load_2 = 60.
	if got := e.Exec(Mapping{0, 1, 2}); got != 70 {
		t.Fatalf("comm-only Exec = %v, want 70", got)
	}
	// Co-located: nothing to compute, nothing to send.
	if got := e.Exec(Mapping{0, 0, 0}); got != 0 {
		t.Fatalf("co-located zero-weight Exec = %v, want 0", got)
	}
	// An isolated zero-weight task contributes nothing anywhere.
	st, err := NewState(e, Mapping{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Exec(); got != 70 {
		t.Fatalf("State Exec = %v, want 70", got)
	}
}

func TestSingleTaskGraph(t *testing.T) {
	// One task, three resources: Exec is just W * cost of the chosen
	// resource, through every scoring path.
	tig := graph.NewTIGWithWeights([]float64{5})
	r := graph.NewResourceGraphWithCosts([]float64{2, 3, 7})
	r.MustAddLink(0, 1, 1)
	r.MustAddLink(0, 2, 1)
	r.MustAddLink(1, 2, 1)
	e, err := NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	for rs, want := range []float64{10, 15, 35} {
		m := Mapping{rs}
		if got := e.Exec(m); got != want {
			t.Fatalf("Exec on resource %d = %v, want %v", rs, got, want)
		}
		st, err := NewState(e, m)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		if got := st.Exec(); got != want {
			t.Fatalf("State Exec on resource %d = %v, want %v", rs, got, want)
		}
	}
}

func TestTrueNOneInstance(t *testing.T) {
	// 1 task on 1 resource: the smallest instance the model admits.
	tig := graph.NewTIGWithWeights([]float64{4})
	r := graph.NewResourceGraphWithCosts([]float64{3})
	e, err := NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Exec(Mapping{0}); got != 12 {
		t.Fatalf("n=1 Exec = %v, want 12", got)
	}
	st, err := NewState(e, Mapping{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Exec(); got != 12 {
		t.Fatalf("n=1 State Exec = %v, want 12", got)
	}
	if got := st.ExecAfterSwap(0, 0); got != 12 {
		t.Fatalf("n=1 ExecAfterSwap = %v, want 12", got)
	}
}

func TestIsolatedTasksIgnoreLinkCosts(t *testing.T) {
	// No edges at all: link costs are irrelevant, Exec = max W*cost.
	tig := graph.NewTIGWithWeights([]float64{2, 8, 3})
	r := graph.NewResourceGraphWithCosts([]float64{1, 1, 1})
	r.MustAddLink(0, 1, math.MaxFloat64)
	r.MustAddLink(0, 2, math.MaxFloat64)
	r.MustAddLink(1, 2, math.MaxFloat64)
	e, err := NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Exec(Mapping{0, 1, 2}); got != 8 {
		t.Fatalf("edgeless Exec = %v, want 8", got)
	}
	if got := e.Exec(Mapping{2, 1, 0}); got != 8 {
		t.Fatalf("edgeless permuted Exec = %v, want 8", got)
	}
}
