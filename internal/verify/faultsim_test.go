package verify

import (
	"testing"

	"matchsim/internal/memcheck"
)

// TestFaultSimWithRestarts is the full gauntlet: two SIGTERM-style
// restart cycles with checkpoint persistence, tiny queue and cache, and
// every subscriber fault. The assertions on the stats prove the faults
// actually fired rather than being scheduled around.
func TestFaultSimWithRestarts(t *testing.T) {
	st, err := RunFaultSim(FaultSimConfig{
		Seed:          1,
		Ops:           30,
		Restarts:      2,
		CheckpointDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("fault sim failed: %v\nstats: %+v", err, st)
	}
	t.Logf("fault sim stats: %+v", st)
	if st.QueueFull == 0 {
		t.Error("no queue-full rejections were injected")
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits occurred")
	}
	if st.Restarts != 2 {
		t.Errorf("restarts = %d, want 2", st.Restarts)
	}
	if st.Restored == 0 {
		t.Error("no jobs were restored across restarts")
	}
	if st.ResumedIterOK != 2 {
		t.Errorf("resumed-and-solving checks = %d, want 2", st.ResumedIterOK)
	}
	if st.StalledSubs == 0 || st.Disconnects == 0 {
		t.Errorf("subscriber faults not exercised: stalled=%d disconnects=%d", st.StalledSubs, st.Disconnects)
	}
	if st.Done == 0 || st.ResultsChecked == 0 {
		t.Errorf("no results delivered/validated: done=%d checked=%d", st.Done, st.ResultsChecked)
	}
	if st.StreamsChecked == 0 {
		t.Error("no subscriber streams validated")
	}
	if st.TracesChecked == 0 {
		t.Error("no span trees validated")
	}
}

// TestFaultSimSingleEpoch runs the schedule with no restarts — the
// steady-state daemon invariants under churn alone.
func TestFaultSimSingleEpoch(t *testing.T) {
	st, err := RunFaultSim(FaultSimConfig{Seed: 2, Ops: 40})
	if err != nil {
		t.Fatalf("fault sim failed: %v\nstats: %+v", err, st)
	}
	t.Logf("fault sim stats: %+v", st)
	if st.Accepted == 0 || st.Done == 0 {
		t.Errorf("sim did no work: %+v", st)
	}
}

// TestFaultSimHeapBound runs the schedule on instances large enough that
// finished jobs holding their instance documents and parsed problems
// (about 116 KB a job at n=48) break the 64 KB per-job heap bound.
func TestFaultSimHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	st, err := RunFaultSim(FaultSimConfig{Seed: 3, Ops: 40, Tasks: 48})
	if err != nil {
		t.Fatalf("fault sim failed: %v\nstats: %+v", err, st)
	}
	t.Logf("fault sim stats: %+v", st)
	if st.HeapPerJob == 0 {
		t.Error("the heap bound was never checked")
	}
}
