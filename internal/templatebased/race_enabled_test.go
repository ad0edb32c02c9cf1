//go:build race

package templatebased

// raceEnabled reports whether the race detector is active. Allocation
// guards are skipped under -race: its instrumentation allocates, and
// sync.Pool deliberately drops puts to widen race coverage.
const raceEnabled = true
