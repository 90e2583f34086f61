package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"
)

// The machine speed every timed end-to-end metric is stated at: the
// speed at which the yardstick's echo takes refEchoUs and one step of
// its table loop refStepNs, which is this VM while its host leaves it
// alone.
const (
	refEchoUs = 5.0
	refStepNs = 95.0
)

// A probe echoes for echoLen, about 1500 round trips, and then runs the
// table loop for stepLen, about 50 000 steps.
const (
	echoLen = 10 * time.Millisecond
	stepLen = 5 * time.Millisecond
)

// yardstick measures how fast the machine is right now. The VM this
// runs on changes speed several times a second, in steps: a 64-byte
// echo over loopback TCP between two goroutines takes 5.1, 6.8 or
// 7.8 µs, and every workload here slows in step with it, by 1.4 to 1.6
// where the echo slows by 1.5 (README.md, "Noise"). The yardstick has
// two halves, as a request has: the echo, which is system calls and
// goroutine hand-offs, and a loop that updates a random word of an
// 8 MiB table and allocates 32 bytes, which is what applying an
// operation does. Neither uses anything of this repository, so no
// change to the repository moves them. A probe before and after every
// slice of a workload gives the slice a speed factor, and what the
// slice measured is scaled by it.
type yardstick struct {
	ln    net.Listener
	cl    net.Conn
	done  chan struct{} // closed when the echo goroutine has ended
	buf   [64]byte
	ns    []uint32
	table []uint64
	x     uint64
	sink  []byte
}

// reading is one probe.
type reading struct {
	echoUs float64 // median round trip
	stepNs float64 // mean step of the table loop
}

// slow is how much slower than the reference speed the machine ran
// between two probes: the geometric mean of what the four readings say.
func slow(a, b reading) float64 {
	return math.Sqrt((a.echoUs + b.echoUs) / 2 / refEchoUs * (a.stepNs + b.stepNs) / 2 / refStepNs)
}

func newYardstick() (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	y := &yardstick{ln: ln, done: make(chan struct{}), table: make([]uint64, 1<<20)}
	go func() {
		defer close(y.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [64]byte
		for {
			if _, err := io.ReadFull(c, b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	if y.cl, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		y.close()
		return nil, err
	}
	return y, nil
}

// close ends the echo goroutine and waits for it.
func (y *yardstick) close() {
	if y.cl != nil {
		_ = y.cl.Close() // the echo goroutine's read fails
	}
	_ = y.ln.Close() // or, if nothing was dialled, its Accept does
	<-y.done
}

func (y *yardstick) probe() (reading, error) {
	y.ns = y.ns[:0]
	for start := time.Now(); time.Since(start) < echoLen; {
		sent := time.Now()
		if _, err := y.cl.Write(y.buf[:]); err != nil {
			return reading{}, fmt.Errorf("yardstick: %w", err)
		}
		if _, err := io.ReadFull(y.cl, y.buf[:]); err != nil {
			return reading{}, fmt.Errorf("yardstick: %w", err)
		}
		y.ns = append(y.ns, uint32(time.Since(sent)))
	}
	slices.Sort(y.ns)
	r := reading{echoUs: float64(y.ns[len(y.ns)/2]) / 1e3}
	steps, start := 0, time.Now()
	for time.Since(start) < stepLen {
		for range 256 {
			y.x += 0x9e3779b97f4a7c15 // splitmix64
			h := y.x
			h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
			h = (h ^ h>>27) * 0x94d049bb133111eb
			h ^= h >> 31
			y.table[h%uint64(len(y.table))] += h
			y.sink = make([]byte, 32)
			y.sink[0] = byte(h)
		}
		steps += 256
	}
	r.stepNs = float64(time.Since(start)) / float64(steps)
	return r, nil
}
