//go:build !race

package kvrepl

const raceEnabled = false
