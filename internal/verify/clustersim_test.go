package verify

import (
	"testing"

	"matchsim/internal/jobs"
)

// TestClusterSim is the multi-node failure drill: a coordinator over
// three real worker daemons goes through a baseline fan-out, a worker
// crash mid-solve, a coordinator restart re-attaching through its
// journal, and a network partition that heals. The stats assertions
// prove each fault actually fired — and that every rescue completed with
// Resumed set, nothing was lost, and no stale result was ever served —
// and that every solver-table entry was routed through the coordinator.
func TestClusterSim(t *testing.T) {
	st, err := RunClusterSim(ClusterSimConfig{
		Seed:     1,
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("cluster sim failed: %v\nstats: %+v", err, st)
	}
	t.Logf("cluster sim stats: %+v", st)
	if st.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", st.Crashes)
	}
	if st.Partitions != 1 || st.Heals != 1 {
		t.Errorf("partitions=%d heals=%d, want 1 and 1", st.Partitions, st.Heals)
	}
	if st.CoordinatorRestarts != 1 {
		t.Errorf("coordinator restarts = %d, want 1", st.CoordinatorRestarts)
	}
	if st.Resumed < 2 {
		t.Errorf("checkpoint-handoff completions = %d, want >= 2 (crash + partition)", st.Resumed)
	}
	if st.Handoffs < 2 {
		t.Errorf("handoffs = %d, want >= 2", st.Handoffs)
	}
	if st.Done != st.Submitted {
		t.Errorf("done=%d of submitted=%d — jobs were lost", st.Done, st.Submitted)
	}
	for _, name := range jobs.SolverNames() {
		if st.Routed[name] == 0 {
			t.Errorf("solver %q never routed through the coordinator", name)
		}
	}
	if st.ResultsChecked == 0 || st.TracesChecked == 0 {
		t.Errorf("nothing validated: results=%d traces=%d", st.ResultsChecked, st.TracesChecked)
	}
}
