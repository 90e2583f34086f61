package kvnet

import (
	"net"
	"time"
)

// Deadlines re-arms one connection's read and write deadlines at half
// life: a deadline of timeout t is set to now+t only when less than t/2
// of the armed one remains. Setting a socket deadline re-arms a runtime
// timer (and reads the clock again), so a connection in steady use pays
// one update per t/2 of wall time instead of one per message — while
// every wait it bounds still times out after at least t/2 and at most t.
// The zero value has nothing armed. It is used by one goroutine at a
// time: the owner of the connection's read or write side.
type Deadlines struct{ read, write time.Time }

// Read re-arms nc's read deadline for timeout t, measured from now, when
// it is due; t <= 0 means no deadline and sets nothing.
func (d *Deadlines) Read(nc net.Conn, now time.Time, t time.Duration) error {
	if !due(&d.read, now, t) {
		return nil
	}
	return nc.SetReadDeadline(d.read)
}

// Write is Read for nc's write deadline.
func (d *Deadlines) Write(nc net.Conn, now time.Time, t time.Duration) error {
	if !due(&d.write, now, t) {
		return nil
	}
	return nc.SetWriteDeadline(d.write)
}

// due advances *at to now+t and reports true when less than t/2 of it
// remains at now.
func due(at *time.Time, now time.Time, t time.Duration) bool {
	if t <= 0 || at.Sub(now) >= t/2 {
		return false
	}
	*at = now.Add(t)
	return true
}
