package ooo

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// recordingExec is a map Executor that logs every pipeline call in
// order. A Put of the key "full" fails, as a full store's does.
type recordingExec struct {
	m     map[string][]byte
	calls []string
}

func newRecordingExec() *recordingExec {
	return &recordingExec{m: map[string][]byte{"k0": []byte("v0"), "k1": []byte("v1")}}
}

func (r *recordingExec) Get(key []byte) ([]byte, bool) {
	r.calls = append(r.calls, "GET "+string(key))
	v, ok := r.m[string(key)]
	return v, ok
}

func (r *recordingExec) Put(key, value []byte) error {
	r.calls = append(r.calls, fmt.Sprintf("PUT %s=%q", key, value))
	if string(key) == "full" {
		return errFull
	}
	r.m[string(key)] = append([]byte(nil), value...)
	return nil
}

func (r *recordingExec) Delete(key []byte) bool {
	r.calls = append(r.calls, "DELETE "+string(key))
	_, ok := r.m[string(key)]
	delete(r.m, string(key))
	return ok
}

// FuzzEngineDo holds Do to the queued path it short-cuts: on one op
// stream, an engine calling Do and an engine calling Submit then Flush
// return the same outcome for every op, make the same executor calls in
// the same order and end with the same Stats. A Do that finds the
// station empty issues its Get, Put or Delete straight to the pipeline
// while the Submit queues; Atomics take the queued path in both. Bit 5
// of an op's byte submits it to both engines without draining, so the
// ops after it meet in-flight work, which a Do must queue behind. Keys
// k0 and k1 start present, k2 absent, and a Put of "full" fails.
func FuzzEngineDo(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(true, []byte{3, 7, 11, 15, 19, 2, 6, 3, 3, 1, 0})
	f.Add(false, []byte{13, 1, 5, 9, 12, 0, 4, 8, 16, 17, 18, 19})
	f.Add(false, []byte{36, 0, 44, 4, 1, 33, 32, 5, 0})
	keys := []string{"k0", "k1", "k2", "full"}
	type outcome struct {
		op    int
		value string
		ok    bool
		err   error
	}
	f.Fuzz(func(t *testing.T, stall bool, stream []byte) {
		direct, queued := newRecordingExec(), newRecordingExec()
		de, qe := NewEngine(direct, 16, 4), NewEngine(queued, 16, 4)
		de.Stall, qe.Stall = stall, stall
		var dAsync, qAsync []outcome
		for i, b := range stream {
			key := []byte(keys[b%4])
			op := Op{Kind: Kind(b / 4 % 4), Key: key, KeyHash: hashOf(key), Value: []byte{'v', b}}
			if op.Kind == Atomic {
				// Bit 4 picks a read-only fold (nil: leave the store
				// unchanged) or an append, so write-backs happen and don't.
				readOnly := b&16 != 0
				op.Fn = func(old []byte) []byte {
					if readOnly {
						return nil
					}
					return append(append([]byte(nil), old...), b)
				}
			}
			if b&32 != 0 {
				op.Done = func(v []byte, ok bool, err error) { dAsync = append(dAsync, outcome{i, string(v), ok, err}) }
				de.Submit(&op)
				op.Done = func(v []byte, ok bool, err error) { qAsync = append(qAsync, outcome{i, string(v), ok, err}) }
				qe.Submit(&op)
				continue
			}
			dv, dok, derr := de.Do(&op)
			var qv []byte
			var qok bool
			var qerr error
			op.Done = func(v []byte, ok bool, err error) { qv, qok, qerr = v, ok, err }
			qe.Submit(&op)
			qe.Flush()
			if !bytes.Equal(dv, qv) || dok != qok || derr != qerr {
				t.Fatalf("op %d (%v %s): Do = %q, %v, %v; Submit+Flush = %q, %v, %v",
					i, op.Kind, key, dv, dok, derr, qv, qok, qerr)
			}
		}
		de.Flush()
		qe.Flush()
		if !reflect.DeepEqual(dAsync, qAsync) {
			t.Fatalf("submitted ops' outcomes differ:\nbeside Do:           %+v\nbeside Submit+Flush: %+v", dAsync, qAsync)
		}
		if !reflect.DeepEqual(direct.calls, queued.calls) {
			t.Fatalf("executor calls differ:\nDo:           %q\nSubmit+Flush: %q", direct.calls, queued.calls)
		}
		if ds, qs := de.Stats(), qe.Stats(); ds != qs {
			t.Fatalf("Stats differ: Do %+v, Submit+Flush %+v", ds, qs)
		}
		if de.InFlight() != 0 {
			t.Fatalf("Do left %d ops in flight", de.InFlight())
		}
	})
}
