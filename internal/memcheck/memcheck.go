// Package memcheck measures the live heap for the memory-bound checks of
// the serving tiers (package jobs and cluster tests, and the fault sim in
// package verify).
package memcheck

import "runtime"

// HeapAfterGC returns the bytes of live heap objects after a full
// collection. Two cycles run, so objects whose finalizers the first
// cycle queued are gone too.
func HeapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
