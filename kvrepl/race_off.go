//go:build !race

package kvrepl

// raceEnabled is off outside race builds (see race_on.go).
const raceEnabled = false
