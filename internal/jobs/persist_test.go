package jobs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicFailureLeavesNoTemp makes the final rename fail (the
// target is a non-empty directory) and checks the temp file is gone.
func TestWriteFileAtomicFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "job.json")
	if err := os.MkdirAll(filepath.Join(target, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("data")); err == nil {
		t.Fatal("write onto a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "job.json" {
			t.Errorf("failed write left %s behind", e.Name())
		}
	}
}

func TestProbeWritableCreatesDirAndLeavesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state", "nested")
	if err := ProbeWritable(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 0 {
		t.Fatalf("probe left %v (%v)", entries, err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ProbeWritable(file); err == nil {
		t.Fatal("probe of a regular file succeeded")
	}
}
