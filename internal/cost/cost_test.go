package cost

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"matchsim/internal/gen"
	"matchsim/internal/graph"
	"matchsim/internal/memcheck"
	"matchsim/internal/xrand"
)

// handInstance builds a 3-task instance small enough to score by hand.
//
// TIG: weights W = [2, 3, 4]; edges (0,1) C=10, (1,2) C=20.
// Platform: costs w = [1, 2, 3]; links all pairs: c01=1, c02=2, c12=3.
func handInstance(t *testing.T) *Evaluator {
	t.Helper()
	tig := graph.NewTIGWithWeights([]float64{2, 3, 4})
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
	return e
}

func TestExecByHand(t *testing.T) {
	e := handInstance(t)
	m := Mapping{0, 1, 2} // identity
	// Exec_0 = 2*1 + 10*c01            = 2 + 10  = 12
	// Exec_1 = 3*2 + 10*c01 + 20*c12   = 6 + 10 + 60 = 76
	// Exec_2 = 4*3 + 20*c12            = 12 + 60 = 72
	loads := e.Loads(m, nil)
	want := []float64{12, 76, 72}
	for i := range want {
		if math.Abs(loads[i]-want[i]) > 1e-12 {
			t.Fatalf("load[%d] = %v, want %v", i, loads[i], want[i])
		}
	}
	if got := e.Exec(m); got != 76 {
		t.Fatalf("Exec = %v, want 76", got)
	}
}

func TestExecByHandPermuted(t *testing.T) {
	e := handInstance(t)
	m := Mapping{2, 0, 1} // task0->r2, task1->r0, task2->r1
	// Exec_2 = 2*3 + 10*c20(=2)          = 6 + 20 = 26
	// Exec_0 = 3*1 + 10*c02(=2) + 20*c01 = 3 + 20 + 20 = 43
	// Exec_1 = 4*2 + 20*c10(=1)          = 8 + 20 = 28
	loads := e.Loads(m, nil)
	if loads[2] != 26 || loads[0] != 43 || loads[1] != 28 {
		t.Fatalf("loads = %v, want [43 28 26]", loads)
	}
	if got := e.Exec(m); got != 43 {
		t.Fatalf("Exec = %v", got)
	}
}

func TestColocatedTasksPayNoComm(t *testing.T) {
	tig := graph.NewTIGWithWeights([]float64{1, 1})
	tig.MustAddEdge(0, 1, 100)
	r := graph.NewResourceGraphWithCosts([]float64{1, 1})
	r.MustAddLink(0, 1, 5)
	e, err := NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	// Both tasks on resource 0: pure compute, no communication.
	if got := e.Exec(Mapping{0, 0}); got != 2 {
		t.Fatalf("co-located Exec = %v, want 2", got)
	}
	// Split: each side pays 100*5.
	if got := e.Exec(Mapping{0, 1}); got != 1+500 {
		t.Fatalf("split Exec = %v, want 501", got)
	}
}

func TestCommTime(t *testing.T) {
	e := handInstance(t)
	m := Mapping{0, 1, 2}
	if got := e.CommTime(1, m); got != 70 {
		t.Fatalf("CommTime(1) = %v, want 70", got)
	}
	if got := e.CommTime(0, m); got != 10 {
		t.Fatalf("CommTime(0) = %v, want 10", got)
	}
	// Co-locate 1 with 0: only edge (1,2) crosses.
	m2 := Mapping{0, 0, 2}
	if got := e.CommTime(1, m2); got != 20*2 {
		t.Fatalf("CommTime(1) after co-location = %v, want 40", got)
	}
}

func TestComputeTimeTable(t *testing.T) {
	e := handInstance(t)
	if got := e.ComputeTime(2, 1); got != 8 {
		t.Fatalf("Tcp[2][1] = %v, want 8", got)
	}
	if got := e.ComputeTime(0, 0); got != 2 {
		t.Fatalf("Tcp[0][0] = %v, want 2", got)
	}
}

func TestNewEvaluatorRejectsBadInputs(t *testing.T) {
	tig := graph.NewTIGWithWeights([]float64{1, 1})
	sparse := graph.NewResourceGraphWithCosts([]float64{1, 1, 1})
	sparse.MustAddLink(0, 1, 1) // resource 2 unreachable
	if _, err := NewEvaluator(tig, sparse); err == nil {
		t.Fatal("not-fully-linked platform accepted")
	}
	badTIG := graph.NewTIGWithWeights([]float64{-1})
	full := graph.NewResourceGraphWithCosts([]float64{1})
	if _, err := NewEvaluator(badTIG, full); err == nil {
		t.Fatal("negative task weight accepted")
	}
}

func TestMappingHelpers(t *testing.T) {
	m := Identity(4)
	if !m.IsPermutation() {
		t.Fatal("identity not a permutation")
	}
	if err := m.Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(3); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
	c := m.Clone()
	c[0] = 2
	if m[0] != 0 {
		t.Fatal("clone aliases mapping")
	}
	if (Mapping{0, 0, 1}).IsPermutation() {
		t.Fatal("duplicate assignment reported as permutation")
	}
	if (Mapping{0, -1}).IsPermutation() {
		t.Fatal("negative assignment reported as permutation")
	}
}

func TestExplainBreakdown(t *testing.T) {
	e := handInstance(t)
	b := e.Explain(Mapping{0, 1, 2})
	if b.Exec != 76 || b.Busiest != 1 {
		t.Fatalf("Exec=%v Busiest=%d", b.Exec, b.Busiest)
	}
	for s := 0; s < 3; s++ {
		if math.Abs(b.Compute[s]+b.Comm[s]-b.Loads[s]) > 1e-12 {
			t.Fatalf("breakdown inconsistent at resource %d", s)
		}
	}
	wantMean := (12.0 + 76.0 + 72.0) / 3
	if math.Abs(b.MeanLoad-wantMean) > 1e-12 {
		t.Fatalf("MeanLoad=%v want %v", b.MeanLoad, wantMean)
	}
	if math.Abs(b.Imbalance-76/wantMean) > 1e-12 {
		t.Fatalf("Imbalance=%v", b.Imbalance)
	}
	if b.Compute[1] != 6 || b.Comm[1] != 70 {
		t.Fatalf("resource 1 split %v/%v, want 6/70", b.Compute[1], b.Comm[1])
	}
}

func TestLoadsReusesBuffer(t *testing.T) {
	e := handInstance(t)
	buf := make([]float64, 3)
	out := e.Loads(Mapping{0, 1, 2}, buf)
	if &out[0] != &buf[0] {
		t.Fatal("Loads did not reuse caller buffer")
	}
	// And stale values must be overwritten.
	buf[0] = 1e18
	out = e.Loads(Mapping{0, 1, 2}, buf)
	if out[0] != 12 {
		t.Fatalf("stale buffer leaked: %v", out[0])
	}
}

func randomEvaluator(t *testing.T, seed uint64, n int) *Evaluator {
	t.Helper()
	inst, err := gen.PaperInstance(seed, n, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEvaluatorHeapBound: an evaluator for n = r = 1024 (mean TIG degree
// 8) retains under 1 MB beyond the TIG and the platform it scores, whose
// link table it aliases. A precomputed n x r compute table alone would
// be 8 MB.
func TestEvaluatorHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const n, limit = 1024, 1 << 20
	inst, err := gen.LargeInstance(2005, n, gen.LargeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inst.TIG.BuildAdjacency() // the TIG's own state, built before the baseline
	before := memcheck.HeapAfterGC()
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	after := memcheck.HeapAfterGC()
	runtime.KeepAlive(e)
	held := int64(after) - int64(before)
	t.Logf("n=%d, %d TIG edges: evaluator holds %d bytes", n, len(inst.TIG.Edges()), held)
	if held > limit {
		t.Errorf("evaluator holds %d bytes at n=%d, want under %d", held, n, limit)
	}
}

func TestIncrementalSwapMatchesFull(t *testing.T) {
	e := randomEvaluator(t, 11, 20)
	rng := xrand.New(99)
	m := Mapping(rng.Perm(20))
	st, err := NewState(e, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		t1, t2 := rng.Intn(20), rng.Intn(20)
		st.Swap(t1, t2)
		full := e.Exec(st.Mapping())
		if math.Abs(st.Exec()-full) > 1e-6*math.Max(1, full) {
			t.Fatalf("after swap %d: incremental %v != full %v", i, st.Exec(), full)
		}
	}
}

func TestIncrementalSetTaskMatchesFull(t *testing.T) {
	e := randomEvaluator(t, 12, 15)
	rng := xrand.New(5)
	st, err := NewState(e, Identity(15))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		st.SetTask(rng.Intn(15), rng.Intn(15))
		full := e.Exec(st.Mapping())
		if math.Abs(st.Exec()-full) > 1e-6*math.Max(1, full) {
			t.Fatalf("after move %d: incremental %v != full %v", i, st.Exec(), full)
		}
	}
}

func TestExecAfterSwapIsNonDestructive(t *testing.T) {
	e := randomEvaluator(t, 13, 12)
	st, err := NewState(e, Identity(12))
	if err != nil {
		t.Fatal(err)
	}
	before := st.Mapping().Clone()
	execBefore := st.Exec()
	probe := st.ExecAfterSwap(2, 7)
	for i := range before {
		if st.Mapping()[i] != before[i] {
			t.Fatal("ExecAfterSwap mutated the mapping")
		}
	}
	if st.Exec() != execBefore {
		t.Fatal("ExecAfterSwap changed the makespan")
	}
	st.Swap(2, 7)
	if math.Abs(st.Exec()-probe) > 1e-9 {
		t.Fatalf("probe %v disagrees with committed swap %v", probe, st.Exec())
	}
}

func TestStateRejectsBadMapping(t *testing.T) {
	e := randomEvaluator(t, 14, 5)
	if _, err := NewState(e, Mapping{0, 1}); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := NewState(e, Mapping{0, 1, 2, 3, 9}); err == nil {
		t.Fatal("out-of-range mapping accepted")
	}
}

func TestRecomputeFixesDrift(t *testing.T) {
	e := randomEvaluator(t, 15, 10)
	st, err := NewState(e, Identity(10))
	if err != nil {
		t.Fatal(err)
	}
	st.loads[3] += 1000 // inject corruption
	st.Recompute()
	if math.Abs(st.Exec()-e.Exec(st.Mapping())) > 1e-9 {
		t.Fatal("Recompute did not restore consistency")
	}
}

// Property: incremental state equals full evaluation after arbitrary
// random swap sequences on random instances.
func TestIncrementalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 5 + int(seed%20)
		inst, err := gen.PaperInstance(seed, n, gen.DefaultPaperConfig())
		if err != nil {
			return false
		}
		e, err := NewEvaluator(inst.TIG, inst.Platform)
		if err != nil {
			return false
		}
		rng := xrand.New(seed ^ 0xabcdef)
		st, err := NewState(e, Mapping(rng.Perm(n)))
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			st.Swap(rng.Intn(n), rng.Intn(n))
		}
		if !st.Mapping().IsPermutation() {
			return false
		}
		full := e.Exec(st.Mapping())
		return math.Abs(st.Exec()-full) <= 1e-6*math.Max(1, full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the makespan is always at least the heaviest single task's
// compute time on its assigned resource, and at least the mean load.
func TestExecLowerBounds(t *testing.T) {
	e := randomEvaluator(t, 16, 25)
	rng := xrand.New(17)
	scratch := make([]float64, 25)
	for trial := 0; trial < 50; trial++ {
		m := Mapping(rng.Perm(25))
		exec := e.ExecInto(m, scratch)
		for task := 0; task < 25; task++ {
			if exec < e.ComputeTime(task, m[task])-1e-9 {
				t.Fatalf("Exec %v below compute time of task %d", exec, task)
			}
		}
		b := e.Explain(m)
		if exec < b.MeanLoad-1e-9 {
			t.Fatalf("Exec %v below mean load %v", exec, b.MeanLoad)
		}
		if math.Abs(b.Exec-exec) > 1e-9 {
			t.Fatalf("Explain and Exec disagree: %v vs %v", b.Exec, exec)
		}
	}
}

func BenchmarkExecFull50(b *testing.B) {
	inst, err := gen.PaperInstance(1, 50, gen.DefaultPaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		b.Fatal(err)
	}
	m := Mapping(xrand.New(2).Perm(50))
	scratch := make([]float64, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExecInto(m, scratch)
	}
}

func BenchmarkIncrementalSwap50(b *testing.B) {
	inst, err := gen.PaperInstance(1, 50, gen.DefaultPaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		b.Fatal(err)
	}
	st, err := NewState(e, Identity(50))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Swap(rng.Intn(50), rng.Intn(50))
	}
}
