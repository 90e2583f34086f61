//go:build race

package kvrepl

// raceEnabled reports that the race detector is on: its instrumentation
// allocates on paths the plain build does not, so exact allocation pins
// skip themselves (make telemetry runs them without -race).
const raceEnabled = true
