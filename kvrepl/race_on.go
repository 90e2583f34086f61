//go:build race

package kvrepl

// raceEnabled reports that the race detector is on. Its instrumentation
// allocates on paths the plain build does not, so exact allocation pins
// skip themselves (make telemetry runs them without -race). And the
// replica poisons what it recycles — the stream's frame buffer before
// each read, a backup's decode scratch after each apply — so an alias
// kept past its reuse reads garbage rather than a neighbour's bytes.
const raceEnabled = true
