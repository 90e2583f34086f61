package kvrepl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
)

// What the store promises, as a test oracle (DESIGN.md, "What the store
// promises"): every point op on a key takes effect atomically at one
// instant between its call and its return, in an order that the
// sequential model below accepts — per-key linearizability. Keys are
// independent, so a history is checked one key at a time
// (P-compositionality), each with a Wing–Gong/Lowe search. An op whose
// call returned an error is indeterminate: it may or may not have taken
// effect, at any instant after its call.

// opKind names a model op: the native ops, then the memcache ones.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opFetchAdd // OpUpdateScalar with FnAdd over an 8-byte counter
	gwGet
	gwSet // a CAS when op.cas != 0
	gwAdd
	gwReplace
	gwAppend
	gwPrepend
	gwDelete
	gwIncr
	gwDecr
)

var opNames = [...]string{"GET", "PUT", "DELETE", "FETCH-ADD", "gw GET", "gw SET", "gw ADD",
	"gw REPLACE", "gw APPEND", "gw PREPEND", "gw DELETE", "gw INCR", "gw DECR"}

// pending is the return time of an indeterminate op.
const pending = math.MaxInt64

// An op is one call in a history. Every write's arg is unique
// (client‖seq), so a value no write attempted is corruption.
type op struct {
	client         int
	kind           opKind
	key            string
	arg            string // the value written, appended or prepended
	cas            uint64 // gwSet's CAS token, 0 for a plain SET
	flags          uint32
	delta, initial uint64 // opFetchAdd, gwIncr, gwDecr
	create         bool   // gwIncr, gwDecr: vivify a missing key at initial
	call, ret      int64  // ret is pending when the outcome is unknown
	out            result // the answer, when ret is not pending
	effectOnly     bool   // a DELETE whose existed bit a replay makes unreliable
}

// A result is an op's answer, every field the op does not answer zero.
type result struct {
	status uint16 // memcache status (gateway ops)
	found  bool   // native GET, DELETE's existed
	val    string
	flags  uint32
	ver    uint64 // memcache CAS token
	num    uint64 // FETCH-ADD's old value, INCR/DECR's new one
}

// state is one key in the sequential model.
type state struct {
	present bool
	val     string
	flags   uint32
	ver     uint64 // writes since the key was created, 0 when absent
}

func writes(k opKind) bool { return k != opGet && k != gwGet }

// step applies o to s as the contract defines it and returns the state
// after and the answer o must have had. The memcache half is memcached's
// binary-protocol semantics, with the version as CAS token.
func step(s state, o *op) (state, result) {
	switch o.kind {
	case opGet:
		return s, result{found: s.present, val: s.val}
	case opPut:
		return state{present: true, val: o.arg}, result{}
	case opDelete:
		return state{}, result{found: s.present}
	case opFetchAdd:
		var old uint64
		if s.present {
			old = binary.LittleEndian.Uint64([]byte(s.val))
		}
		return state{present: true, val: string(binary.LittleEndian.AppendUint64(nil, old+o.delta))}, result{num: old}
	case gwGet:
		if !s.present {
			return s, result{status: kvgw.StatusKeyNotFound}
		}
		return s, result{found: true, val: s.val, flags: s.flags, ver: s.ver}
	case gwSet, gwAdd, gwReplace:
		switch {
		case o.kind == gwAdd && s.present:
			return s, result{status: kvgw.StatusKeyExists}
		case !s.present && (o.kind == gwReplace || o.cas != 0):
			return s, result{status: kvgw.StatusKeyNotFound}
		case o.cas != 0 && o.cas != s.ver:
			return s, result{status: kvgw.StatusKeyExists}
		}
		return state{true, o.arg, o.flags, s.ver + 1}, result{ver: s.ver + 1}
	case gwAppend, gwPrepend:
		if !s.present {
			return s, result{status: kvgw.StatusNotStored}
		}
		val := s.val + o.arg
		if o.kind == gwPrepend {
			val = o.arg + s.val
		}
		return state{true, val, s.flags, s.ver + 1}, result{ver: s.ver + 1}
	case gwDelete:
		if !s.present {
			return s, result{status: kvgw.StatusKeyNotFound}
		}
		return state{}, result{}
	default: // gwIncr, gwDecr
		if !s.present && !o.create {
			return s, result{status: kvgw.StatusKeyNotFound}
		}
		n := o.initial
		if s.present {
			cur, err := strconv.ParseUint(s.val, 10, 64)
			switch {
			case err != nil:
				return s, result{status: kvgw.StatusDeltaBadVal}
			case o.kind == gwIncr:
				n = cur + o.delta // wraps at 2^64
			case o.delta > cur:
				n = 0 // a decrement saturates
			default:
				n = cur - o.delta
			}
		}
		return state{true, strconv.FormatUint(n, 10), s.flags, s.ver + 1}, result{num: n, ver: s.ver + 1}
	}
}

// accepts reports whether o's recorded answer is want.
func (o *op) accepts(want result) bool {
	if o.ret == pending {
		return true
	}
	if o.effectOnly {
		want.found = o.out.found
	}
	return o.out == want
}

func (o *op) String() string {
	ret, out := "?", "indeterminate"
	if o.ret != pending {
		ret, out = strconv.FormatInt(o.ret, 10), fmt.Sprintf("%+v", o.out)
	}
	return fmt.Sprintf("[%d,%s] c%d %s arg=%q cas=%d delta=%d -> %s", o.call, ret, o.client, opNames[o.kind], strings.TrimSpace(o.arg), o.cas, o.delta, out)
}

// history records ops against one clock. The recorder wraps the public
// clients; nothing in the store knows it is being watched.
type history struct {
	start time.Time
	mu    sync.Mutex
	ops   []*op
}

func (h *history) now() int64 { return int64(time.Since(h.start)) }

// A caller issues one op through a public client: ok is false when the
// outcome is unknown (any error).
type caller interface {
	call(o *op) (out result, ok bool)
}

// do times one op through c and records it; an indeterminate read
// constrains nothing and is dropped.
func (h *history) do(c caller, o *op) (result, bool) {
	o.call = h.now()
	out, ok := c.call(o)
	o.ret = pending
	if ok {
		o.ret, o.out = h.now(), out
	}
	if ok || writes(o.kind) {
		h.mu.Lock()
		h.ops = append(h.ops, o)
		h.mu.Unlock()
	}
	return out, ok
}

// nativeCaller issues native ops through a kvnet.Client.
type nativeCaller struct{ c *kvnet.Client }

func (n nativeCaller) call(o *op) (result, bool) {
	k := []byte(o.key)
	switch o.kind {
	case opGet:
		v, found, err := n.c.Get(k)
		return result{found: found, val: string(v)}, err == nil
	case opPut:
		return result{}, n.c.Put(k, []byte(o.arg)) == nil
	case opDelete:
		existed, err := n.c.Delete(k)
		return result{found: existed}, err == nil
	default:
		old, err := n.c.FetchAdd(k, o.delta)
		return result{num: old}, err == nil
	}
}

// gwCaller issues memcache ops through a kvgw.Client. A status that
// says nothing about the key (a backend failure, a quota) is
// indeterminate, as is a broken connection, which the next call redials.
type gwCaller struct {
	addr, tenant string
	c            *kvgw.Client
}

func (g *gwCaller) call(o *op) (result, bool) {
	if g.c == nil {
		c, err := kvgw.DialClient(g.addr)
		if err != nil {
			return result{}, false
		}
		if err := c.Auth(g.tenant, ""); err != nil {
			_ = c.Close() // never used
			return result{}, false
		}
		g.c = c
	}
	var r result
	var err error
	k := []byte(o.key)
	switch o.kind {
	case gwGet:
		var v []byte
		v, r.flags, r.ver, r.found, err = g.c.Get(k)
		r.val = string(v)
		if err == nil && !r.found {
			r.status = kvgw.StatusKeyNotFound
		}
	case gwDelete:
		r.status, err = g.c.Delete(k, 0)
	case gwIncr, gwDecr:
		r.num, r.ver, r.status, err = g.c.Counter(k, o.kind == gwIncr, o.delta, o.initial, o.create)
	default:
		cmd := map[opKind]uint8{gwSet: kvgw.CmdSet, gwAdd: kvgw.CmdAdd, gwReplace: kvgw.CmdReplace,
			gwAppend: kvgw.CmdAppend, gwPrepend: kvgw.CmdPrepend}[o.kind]
		r.ver, r.status, err = g.c.Store(cmd, k, []byte(o.arg), o.flags, o.cas)
	}
	if err != nil {
		g.close() // broken; redialed on the next call
		return result{}, false
	}
	switch r.status {
	case kvgw.StatusOK:
	case kvgw.StatusKeyNotFound, kvgw.StatusKeyExists, kvgw.StatusNotStored, kvgw.StatusDeltaBadVal:
		return result{status: r.status}, true
	default:
		return result{}, false
	}
	if o.kind == gwDelete {
		r.ver = 0 // a delete's reply carries no version the model tracks
	}
	return r, true
}

func (g *gwCaller) close() {
	if g.c != nil {
		_ = g.c.Close() // nothing was written that a close could lose
		g.c = nil
	}
}

// checkHistory holds every key's ops to the contract: linearizable, or
// under lossy (uncorrectable memory faults) only "an OK read returns a
// value some write to the key attempted before the read returned".
func checkHistory(ops []*op, lossy bool) error {
	byKey := map[string][]*op{}
	for _, o := range ops {
		byKey[o.key] = append(byKey[o.key], o)
	}
	for k, h := range byKey {
		sort.Slice(h, func(i, j int) bool { return h[i].call < h[j].call })
		var err error
		if lossy {
			err = lossyErr(h)
		} else if !linearizable(h) {
			err = fmt.Errorf("no linearization")
		}
		if err != nil {
			var b strings.Builder
			for _, o := range h {
				fmt.Fprintf(&b, "\t%s\n", o)
			}
			return fmt.Errorf("key %q: %v; its history:\n%s", k, err, b.String())
		}
	}
	return nil
}

// lossyErr: every OK read returns a value a write to the key attempted
// before the read returned, or NotFound. Errors are allowed.
func lossyErr(h []*op) error {
	for _, r := range h {
		if writes(r.kind) || r.ret == pending || !r.out.found {
			continue
		}
		attempted := false
		for _, w := range h {
			attempted = attempted || (writes(w.kind) && w.call < r.ret && w.arg == r.out.val)
		}
		if !attempted {
			return fmt.Errorf("read %q, which no write before it attempted", r.out.val)
		}
	}
	return nil
}

// linearizable is the Wing–Gong search with Lowe's memoisation: the
// next op in a linearization is any op called before every op not yet
// taken has returned, and whose answer the model gives in the current
// state; a (taken set, state) pair already explored is not explored
// again. h is sorted by call.
func linearizable(h []*op) bool {
	type memo struct {
		taken string
		st    state
	}
	taken, seen := make([]byte, len(h)), map[memo]bool{}
	var search func(st state, left int) bool
	search = func(st state, left int) bool {
		if left == 0 {
			return true
		}
		horizon := int64(pending) // the earliest return of an op not yet taken
		for i, o := range h {
			if taken[i] == 0 && o.ret < horizon {
				horizon = o.ret
			}
		}
		for i, o := range h {
			if o.call > horizon {
				break
			}
			next, want := step(st, o)
			if taken[i] != 0 || !o.accepts(want) {
				continue
			}
			taken[i] = 1
			if m := (memo{string(taken), next}); !seen[m] {
				seen[m] = true
				if search(next, left-1) {
					return true
				}
			}
			taken[i] = 0
		}
		return false
	}
	return search(state{}, len(h))
}

// scanErr checks one ScanPage answer against the exact model: sorted,
// exactly the model's keys from start on (no phantom, no miss), exact
// values, and the cursor the model's next key.
func scanErr(model map[string]string, start string, limit int, entries []kvdirect.ScanEntry, cursor []byte) error {
	var want []string
	for k := range model {
		if k >= start {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	wantCursor := ""
	if len(want) > limit {
		want, wantCursor = want[:limit], want[limit]
	}
	if len(entries) != len(want) {
		return fmt.Errorf("scan(%q, %d): %d entries, want %d", start, limit, len(entries), len(want))
	}
	for i, e := range entries {
		if string(e.Key) != want[i] || string(e.Value) != model[want[i]] {
			return fmt.Errorf("scan(%q, %d): entry %d is %q=%q, want %q=%q", start, limit, i, e.Key, e.Value, want[i], model[want[i]])
		}
	}
	if string(cursor) != wantCursor {
		return fmt.Errorf("scan(%q, %d): cursor %q, want %q", start, limit, cursor, wantCursor)
	}
	return nil
}

// walkErr checks a full Client.Scan walk: it must be the whole model, in
// order, each key once.
func walkErr(model map[string]string, all []kvdirect.ScanEntry) error {
	for i, e := range all {
		if i > 0 && bytes.Compare(all[i-1].Key, e.Key) >= 0 {
			return fmt.Errorf("walk: %q after %q", e.Key, all[i-1].Key)
		}
		if v, ok := model[string(e.Key)]; !ok || v != string(e.Value) {
			return fmt.Errorf("walk: %q=%q, model has %q (present %v)", e.Key, e.Value, v, ok)
		}
	}
	if len(all) != len(model) {
		return fmt.Errorf("walk: %d keys, model has %d", len(all), len(model))
	}
	return nil
}

// TestOracleRejectsViolations: the checker refuses each kind of broken
// history the contract rules out, and accepts the legal ones.
func TestOracleRejectsViolations(t *testing.T) {
	put := func(c int, call, ret int64, v string) *op {
		return &op{client: c, kind: opPut, key: "k", arg: v, call: call, ret: ret}
	}
	get := func(c int, call, ret int64, found bool, v string) *op {
		return &op{client: c, kind: opGet, key: "k", call: call, ret: ret, out: result{found: found, val: v}}
	}
	gw := func(kind opKind, call, ret int64, arg string, cas uint64, out result) *op {
		return &op{kind: kind, key: "g", arg: arg, cas: cas, call: call, ret: ret, out: out}
	}
	bad := map[string][]*op{
		"stale read after an ack":       {put(1, 0, 10, "a"), put(1, 20, 30, "b"), get(2, 40, 50, true, "a")},
		"acked write lost after a kill": {put(1, 0, 10, "a"), get(2, 40, 50, false, "")},
		"value from the future":         {get(2, 0, 10, true, "a"), put(1, 20, 30, "a")},
		"corrupted value":               {put(1, 0, 10, "a"), get(2, 20, 30, true, "a\x01")},
		"gateway CAS version off by one": {
			gw(gwSet, 0, 10, "a", 0, result{ver: 1}),
			gw(gwSet, 20, 30, "b", 1, result{ver: 3}),
		},
		"replayed PUT resurrects a deleted key": {
			put(1, 0, 10, "a"),
			{client: 2, kind: opDelete, key: "k", call: 20, ret: 30, out: result{found: true}, effectOnly: true},
			get(3, 40, 50, true, "a"),
		},
	}
	for name, h := range bad {
		if err := checkHistory(h, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ab := []kvdirect.ScanEntry{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}
	if err := scanErr(map[string]string{"a": "1", "b": "2", "c": "3"}, "", 2, ab, []byte("b")); err == nil {
		t.Error("a page whose cursor repeats its last key: accepted")
	}
	if err := walkErr(map[string]string{"a": "1", "b": "2"}, append(ab, ab[1])); err == nil {
		t.Error("a walk that repeats a key across a resume: accepted")
	}

	// Legal: an indeterminate write may take effect at any instant after
	// its call, or never; a concurrent read may see either side of it.
	legal := []*op{
		put(1, 0, 10, "a"),
		{client: 1, kind: opPut, key: "k", arg: "b", call: 20, ret: pending},
		get(2, 25, 30, true, "a"),
		put(3, 60, 70, "c"),
		get(2, 80, 90, true, "c"),
		get(2, 100, 110, true, "b"),
		gw(gwAppend, 0, 10, "x", 0, result{status: kvgw.StatusNotStored}),
		gw(gwSet, 20, 30, "a", 0, result{ver: 1}),
		gw(gwSet, 40, 50, "b", 1, result{ver: 2}),
	}
	if err := checkHistory(legal, false); err != nil {
		t.Errorf("legal history refused: %v", err)
	}
	// Lossy: a read may return an older attempted value (the newer one
	// was lost to an uncorrectable fault), never one nobody wrote.
	reverted := []*op{put(1, 0, 10, "a"), put(1, 20, 30, "b"), get(2, 40, 50, true, "a")}
	if err := checkHistory(reverted, true); err != nil {
		t.Errorf("lossy mode refused a reverted value: %v", err)
	}
	if err := checkHistory([]*op{put(1, 0, 10, "a"), get(2, 40, 50, true, "z")}, true); err == nil {
		t.Error("lossy mode accepted a value nobody wrote")
	}
}
