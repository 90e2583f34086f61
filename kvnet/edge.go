package kvnet

import (
	"net"
	"sync"
	"sync/atomic"
)

// Edge is a serving TCP listener — the one place a connection is
// accepted, tracked and closed, standing in for the NIC as the
// server's single network edge. Each accepted connection runs serve on
// its own goroutine and is closed when serve returns. A panic in serve
// costs that connection only: it is recovered and counted in panics
// (the owner's server.panics). kvnet.Server, the memcache gateway and a
// replica's replication endpoint all serve through one.
type Edge struct {
	ln     net.Listener
	serve  func(net.Conn)
	panics *atomic.Uint64
	wg     sync.WaitGroup // the accept loop and every handler

	mu    sync.Mutex
	conns map[net.Conn]struct{} // live connections; nil once Close has walked them

	closeOnce sync.Once
	closeErr  error
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") in the
// background.
func Listen(addr string, serve func(net.Conn), panics *atomic.Uint64) (*Edge, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &Edge{ln: ln, serve: serve, panics: panics, conns: map[net.Conn]struct{}{}}
	e.wg.Add(1)
	go e.accept()
	return e, nil
}

// Addr returns the listen address.
func (e *Edge) Addr() string { return e.ln.Addr().String() }

// Close stops accepting, closes every live connection and waits for
// their handlers to return. Only the first call does anything; every
// call returns the listener's close error.
func (e *Edge) Close() error {
	e.closeOnce.Do(func() {
		e.closeErr = e.ln.Close()
		e.mu.Lock()
		for c := range e.conns {
			_ = c.Close() // unblocks its handler; the shutdown outcome is ln.Close's
		}
		e.conns = nil
		e.mu.Unlock()
		e.wg.Wait()
	})
	return e.closeErr
}

func (e *Edge) accept() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// A connection accepted just before the listener closed, but
		// tracked after Close walked the live set, would be missed by it
		// and its handler would block with nothing left to unblock it:
		// refuse it instead.
		e.mu.Lock()
		if e.conns == nil {
			e.mu.Unlock()
			_ = c.Close() // never served
			continue
		}
		e.conns[c] = struct{}{}
		e.wg.Add(1) // under mu, so before Close's Wait
		e.mu.Unlock()
		go e.handle(c)
	}
}

func (e *Edge) handle(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		if recover() != nil {
			e.panics.Add(1)
		}
		_ = c.Close() // the handler is done with it, however it ended
		e.mu.Lock()
		delete(e.conns, c)
		e.mu.Unlock()
	}()
	e.serve(c)
}
