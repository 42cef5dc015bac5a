//go:build !race

package memcheck

// RaceEnabled reports a build with the race detector, whose shadow
// memory and retained allocation history distort heap figures; heap
// bounds skip themselves under it.
const RaceEnabled = false
