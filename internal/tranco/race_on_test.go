//go:build race

package tranco

// raceEnabled reports whether the race detector is on; its instrumentation
// allocates, so allocation budgets are not meaningful under it.
const raceEnabled = true
