//go:build !race

package kvnet

// poisonRecycled is off outside race builds (see poison_race.go).
const poisonRecycled = false
