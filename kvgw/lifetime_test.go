package kvgw

import (
	"bytes"
	"fmt"
	"testing"
)

// TestGatewayLongRunKeepsItsBytes pipelines quiet runs far larger than
// the connection's 64 KiB reader and the arena's first chunk, so that
// the reader's buffer is refilled and the arena takes new chunks while
// steps queued earlier still point at what they wrote. Every key and
// value must read back byte for byte, and the answers that are not
// elided — an oversized SET's E2BIG, two mid-pipeline SASL re-auths —
// must keep their places in the response order, the re-auths taking
// effect for exactly the requests behind them.
func TestGatewayLongRunKeepsItsBytes(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})
	rc := rawDial(t, fx.gateway.Addr())
	rc.mustAuth("acme", "s3cret")

	const (
		n      = 300
		reauth = 200 // keys from here on are stored as globex
		big    = 100 // the oversized SET goes in before this key
	)
	key := func(i int) []byte { return []byte(fmt.Sprintf("lifetime-key-%04d", i)) }
	val := func(i int) []byte {
		v := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 512)
		copy(v, key(i))
		return v
	}
	sasl := func(opaque uint32, tenant, secret string) []byte {
		return frame(0x21, opaque, 0, nil, []byte("PLAIN"), []byte("\x00"+tenant+"\x00"+secret))
	}

	// 300 SETQs of 1 KiB, one oversized SETQ and one re-auth among them.
	var run []byte
	for i := 0; i < n; i++ {
		switch i {
		case big:
			run = append(run, frame(0x11, 7001, 0, storeExtras(0), []byte("too-big"),
				make([]byte, MaxStoredValueLen+1))...)
		case reauth:
			run = append(run, sasl(7002, "globex", "")...)
		}
		run = append(run, frame(0x11, uint32(i), 0, storeExtras(uint32(i)), key(i), val(i))...)
	}
	run = append(run, frame(0x0a, 7003, 0, nil, nil, nil)...)
	rc.send(run)
	if resp := rc.recv(); resp.opcode != 0x01 || resp.status != 0x0003 || resp.opaque != 7001 {
		t.Fatalf("first answer is not the oversized SET's E2BIG: %+v", resp)
	}
	if resp := rc.recv(); resp.opcode != 0x21 || resp.status != 0 || resp.opaque != 7002 {
		t.Fatalf("second answer is not the re-auth's: %+v", resp)
	}
	if resp := rc.recv(); resp.opcode != 0x0a || resp.opaque != 7003 {
		t.Fatalf("third answer is not the NOOP's: %+v", resp)
	}

	// Read everything back with GETKQ: as globex, which holds the keys
	// stored after the re-auth, then — in the same pipeline — as acme.
	run = run[:0]
	for i := 0; i < n; i++ {
		run = append(run, frame(0x0d, uint32(i), 0, nil, key(i), nil)...)
	}
	run = append(run, sasl(7004, "acme", "s3cret")...)
	for i := 0; i < n; i++ {
		run = append(run, frame(0x0d, uint32(n+i), 0, nil, key(i), nil)...)
	}
	run = append(run, frame(0x0a, 7005, 0, nil, nil, nil)...)
	rc.send(run)
	hit := func(i int, opaque uint32) {
		t.Helper()
		resp := rc.recv()
		if resp.opcode != 0x0c || resp.status != 0 || resp.opaque != opaque {
			t.Fatalf("key %d: want its GETK hit (opaque %d), got %+v", i, opaque, resp)
		}
		if !bytes.Equal(resp.key, key(i)) || !bytes.Equal(resp.value, val(i)) {
			t.Fatalf("key %d read back as key %q, value %.24q… (%d bytes)", i, resp.key, resp.value, len(resp.value))
		}
		if got := uint32(resp.extras[0])<<24 | uint32(resp.extras[1])<<16 | uint32(resp.extras[2])<<8 | uint32(resp.extras[3]); got != uint32(i) {
			t.Fatalf("key %d read back with flags %d", i, got)
		}
	}
	for i := reauth; i < n; i++ {
		hit(i, uint32(i))
	}
	if resp := rc.recv(); resp.opcode != 0x21 || resp.status != 0 || resp.opaque != 7004 {
		t.Fatalf("after globex's hits, want the re-auth's answer, got %+v", resp)
	}
	for i := 0; i < reauth; i++ {
		hit(i, uint32(n+i))
	}
	if resp := rc.recv(); resp.opcode != 0x0a || resp.opaque != 7005 {
		t.Fatalf("last answer is not the NOOP's: %+v", resp)
	}
}
