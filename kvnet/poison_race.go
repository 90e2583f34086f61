//go:build race

package kvnet

// poisonRecycled is on under the race detector: Server.handle poisons a
// connection's recycled buffers before each reuse (see poison). The
// plain build skips the cost.
const poisonRecycled = true
