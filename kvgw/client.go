package kvgw

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// Client is a minimal memcache-binary client for the load generator,
// the CLI and the benchmarks. It speaks the same frames a stock
// memcached client library would; the gateway acceptance tests
// deliberately do NOT use it (they hand-roll frames so the bytes on the
// wire are verified independently of this codec).
type Client struct {
	nc     net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	opaque uint32
	buf    []byte // the request frame being sent
	frame  []byte // the response frame last received
}

// DialClient connects to a gateway.
func DialClient(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc,
		r: bufio.NewReaderSize(nc, 64<<10),
		w: bufio.NewWriterSize(nc, 64<<10)}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.nc.Close() }

//kvd:hotpath
func (c *Client) send(req Request) error {
	c.opaque++
	req.Opaque = c.opaque
	out, err := AppendRequest(c.buf[:0], req) //lint:allow hotalloc -- the frame buffer grows to the largest request sent, then is reused
	if err != nil {
		return err
	}
	c.buf = out
	_, err = c.w.Write(out)
	return err
}

// recv reads one response. Its Extras, Key and Value alias the client's
// frame buffer and are good until the next recv; what a caller hands on
// it copies.
func (c *Client) recv() (Response, error) {
	if err := c.w.Flush(); err != nil {
		return Response{}, err
	}
	hdr, err := c.r.Peek(HeaderSize)
	if err != nil {
		return Response{}, err
	}
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	if bodyLen > MaxBodyLen {
		return Response{}, ErrBodyLen
	}
	need := HeaderSize + bodyLen
	if cap(c.frame) < need {
		c.frame = make([]byte, need)
	}
	frame := c.frame[:need]
	if _, err := io.ReadFull(c.r, frame); err != nil {
		return Response{}, err
	}
	resp, _, err := DecodeResponse(frame)
	return resp, err
}

func (c *Client) roundTrip(req Request) (Response, error) {
	if err := c.send(req); err != nil {
		return Response{}, err
	}
	return c.recv()
}

// Auth authenticates the connection as a tenant via SASL PLAIN.
func (c *Client) Auth(tenant, secret string) error {
	val := append([]byte{0}, tenant...)
	val = append(val, 0)
	val = append(val, secret...)
	resp, err := c.roundTrip(Request{Opcode: CmdSASLAuth, Key: []byte("PLAIN"), Value: val})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("kvgw: auth as %q: %s", tenant, StatusText(resp.Status))
	}
	return nil
}

// Get fetches a key. found=false with a nil error is a clean miss.
func (c *Client) Get(key []byte) (value []byte, flags uint32, cas uint64, found bool, err error) {
	resp, err := c.roundTrip(Request{Opcode: CmdGet, Key: key})
	if err != nil {
		return nil, 0, 0, false, err
	}
	switch resp.Status {
	case StatusOK:
		if len(resp.Extras) == 4 {
			flags = binary.BigEndian.Uint32(resp.Extras)
		}
		return append([]byte(nil), resp.Value...), flags, resp.CAS, true, nil
	case StatusKeyNotFound:
		return nil, 0, 0, false, nil
	}
	return nil, 0, 0, false, fmt.Errorf("kvgw: get: %s", StatusText(resp.Status))
}

// Store issues SET/ADD/REPLACE/APPEND/PREPEND (pass the Cmd* opcode).
// The returned status lets callers distinguish expected failures
// (KEY_EXISTS on a lost CAS race) without string matching.
func (c *Client) Store(opcode uint8, key, value []byte, flags uint32, cas uint64) (newCAS uint64, status uint16, err error) {
	req := Request{Opcode: opcode, Key: key, Value: value, CAS: cas}
	var extras [8]byte // flags u32 | expiry u32
	switch opcode {
	case CmdSet, CmdAdd, CmdReplace:
		binary.BigEndian.PutUint32(extras[:], flags)
		req.Extras = extras[:]
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return 0, 0, err
	}
	return resp.CAS, resp.Status, nil
}

// Set stores unconditionally and returns the new CAS token.
func (c *Client) Set(key, value []byte, flags uint32) (uint64, error) {
	cas, status, err := c.Store(CmdSet, key, value, flags, 0)
	if err != nil {
		return 0, err
	}
	if status != StatusOK {
		return 0, fmt.Errorf("kvgw: set: %s", StatusText(status))
	}
	return cas, nil
}

// Delete removes a key; status distinguishes miss from success.
func (c *Client) Delete(key []byte, cas uint64) (status uint16, err error) {
	resp, err := c.roundTrip(Request{Opcode: CmdDelete, Key: key, CAS: cas})
	if err != nil {
		return 0, err
	}
	return resp.Status, nil
}

// Counter issues INCR (incr=true) or DECR. create=false sets the "do
// not vivify" expiry.
func (c *Client) Counter(key []byte, incr bool, delta, initial uint64, create bool) (value, cas uint64, status uint16, err error) {
	var extras [20]byte // delta u64 | initial u64 | expiry u32
	binary.BigEndian.PutUint64(extras[:], delta)
	binary.BigEndian.PutUint64(extras[8:], initial)
	if !create {
		binary.BigEndian.PutUint32(extras[16:], 0xffffffff)
	}
	opcode := uint8(CmdIncr)
	if !incr {
		opcode = CmdDecr
	}
	resp, err := c.roundTrip(Request{Opcode: opcode, Key: key, Extras: extras[:]})
	if err != nil {
		return 0, 0, 0, err
	}
	if resp.Status == StatusOK && len(resp.Value) == 8 {
		value = binary.BigEndian.Uint64(resp.Value)
	}
	return value, resp.CAS, resp.Status, nil
}

// Version fetches the server version string.
func (c *Client) Version() (string, error) {
	resp, err := c.roundTrip(Request{Opcode: CmdVersion})
	if err != nil {
		return "", err
	}
	return string(resp.Value), nil
}

// Stats fetches the tenant's stat map.
func (c *Client) Stats() (map[string]string, error) {
	if err := c.send(Request{Opcode: CmdStat}); err != nil {
		return nil, err
	}
	out := map[string]string{}
	for {
		resp, err := c.recv()
		if err != nil {
			return nil, err
		}
		if resp.Status != StatusOK {
			return nil, fmt.Errorf("kvgw: stats: %s", StatusText(resp.Status))
		}
		if len(resp.Key) == 0 {
			return out, nil
		}
		out[string(resp.Key)] = string(resp.Value)
	}
}

// SetBatch pipelines quiet SETs terminated by a NOOP — one write, one
// flush, one response frame (plus any error frames), the memcache
// idiom the gateway turns into a single backend batch per buffered
// chunk. It returns the number of SETs that reported an error.
func (c *Client) SetBatch(keys, values [][]byte, flags uint32) (refused int, err error) {
	var extras [8]byte // flags u32 | expiry u32
	binary.BigEndian.PutUint32(extras[:], flags)
	for i := range keys {
		if err := c.send(Request{Opcode: CmdSetQ, Key: keys[i], Value: values[i],
			Extras: extras[:]}); err != nil {
			return 0, err
		}
	}
	if err := c.send(Request{Opcode: CmdNoop}); err != nil {
		return 0, err
	}
	for {
		resp, err := c.recv()
		if err != nil {
			return refused, err
		}
		if resp.Opcode == CmdNoop {
			return refused, nil
		}
		refused++
	}
}

// GetBatch pipelines quiet GETs terminated by a NOOP, returning hit
// values keyed by opaque order (nil for misses). The values are the
// caller's. They are cut from a slab sized, at the first hit, for as
// many values of that length as keys remain (64 KiB at most, or the one
// value), so a run of like-sized values costs one allocation, not one
// per hit.
func (c *Client) GetBatch(keys [][]byte) ([][]byte, error) {
	base := c.opaque
	for _, k := range keys {
		if err := c.send(Request{Opcode: CmdGetQ, Key: k}); err != nil {
			return nil, err
		}
	}
	if err := c.send(Request{Opcode: CmdNoop}); err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	var slab []byte
	for {
		resp, err := c.recv()
		if err != nil {
			return nil, err
		}
		if resp.Opcode == CmdNoop {
			return out, nil
		}
		idx := int(resp.Opaque - base - 1)
		if resp.Status == StatusOK && idx >= 0 && idx < len(out) {
			n := len(resp.Value)
			if cap(slab)-len(slab) < n {
				slab = make([]byte, 0, max(n, min(n*(len(out)-idx), 64<<10)))
			}
			slab = append(slab, resp.Value...)
			out[idx] = slab[len(slab)-n : len(slab) : len(slab)]
		}
	}
}
