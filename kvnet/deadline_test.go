package kvnet

import (
	"bufio"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"kvdirect/internal/wire"
)

// TestExchangeTimeoutHalfLife bounds a stuck exchange under half-life
// read deadlines: against a peer that stops answering, an exchange that
// starts after the connection idled for part of the timeout T still fails
// with a timeout no earlier than T/2 — a deadline armed by an earlier
// exchange is re-armed once less than T/2 of it is left — and no later
// than T (plus scheduling slack).
func TestExchangeTimeoutHalfLife(t *testing.T) {
	const T = 200 * time.Millisecond
	const slack = 250 * time.Millisecond
	for _, tc := range []struct {
		name     string
		answered int           // requests the peer answers before going silent
		idle     time.Duration // idle time before the exchange under test
	}{
		{"never answered, idle 0.6T after dial", 0, 6 * T / 10},
		{"deadline armed 0.6T ago: re-armed", 1, 6 * T / 10},
		{"deadline armed 0.3T ago: kept", 1, 3 * T / 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := silentPeer(t, tc.answered)
			c, err := DialOptions(addr, Options{ReadTimeout: T, MaxRetries: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < tc.answered; i++ {
				if _, _, err := c.Get([]byte("k")); err != nil {
					t.Fatalf("answered exchange %d: %v", i, err)
				}
			}
			time.Sleep(tc.idle)
			start := time.Now()
			_, _, err = c.Get([]byte("k"))
			waited := time.Since(start)
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("stuck exchange returned %v, want a timeout", err)
			}
			if waited < T/2 || waited > T+slack {
				t.Fatalf("stuck exchange timed out after %v, want within [%v, %v]", waited, T/2, T+slack)
			}
		})
	}
}

// silentPeer serves one connection that answers its first n request
// frames with a single OK response each and then reads on, never
// answering again. It returns the listen address.
func silentPeer(t *testing.T, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := wire.AppendResponses(nil, []wire.Response{{Status: wire.StatusOK}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := bufio.NewReader(nc)
		for i := 0; ; i++ {
			if _, err := ReadFrame(r); err != nil {
				return // the client hung up
			}
			if i < n && WriteFrame(nc, ok) != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close() // ends an Accept still waiting; the client's Close ends the read loop
		wg.Wait()
	})
	return ln.Addr().String()
}
