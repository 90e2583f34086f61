// Fixture for dropped error / wire.Response results.
package hotpath

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"kvdirect/internal/wire"
)

func flush() error { return errors.New("boom") }

func apply() wire.Response { return wire.Response{} }

func pair() (int, error) { return 0, nil }

func touch() {}

type closer struct{}

func (closer) Close() error { return nil }

func drops() {
	flush()    // want "error result of flush is discarded"
	apply()    // want "wire.Response result of apply is discarded"
	pair()     // want "error result of pair is discarded"
	go flush() // want "error result of flush is discarded"
}

func blankDrops() {
	_ = flush()                   // want "error result of flush is discarded by blank assignment"
	_ = apply()                   // want "wire.Response result of apply is discarded by blank assignment"
	_, _ = pair()                 // want "error result of pair is discarded by blank assignment"
	errors.Join(flush(), flush()) // want "joined error of errors.Join is discarded"
	_ = errors.Join(flush(), nil) // want "joined error of errors.Join is discarded by blank assignment"
	var c closer
	_ = c.Close() // best-effort cleanup: the accepted blank discard
}

func fine() {
	touch() // no results at all
	if err := flush(); err != nil {
		_ = err
	}
	v, _ := pair() // mixed assignment: a result stays live
	_ = v
	err := errors.Join(flush(), flush()) // joined error is kept
	_ = err
	defer flush()    // defer cleanup idiom: skipped
	fmt.Println("x") // fmt print family: ignored noise
	var b strings.Builder
	b.WriteString("x") // documented always-nil error: ignored
	h := fnv.New64a()
	_, _ = h.Write([]byte("x")) // hash.Hash documents Write never errors
	flush()                     //lint:allow statuserr -- fixture: suppression path
	_ = flush()                 //lint:allow statuserr -- fixture: blank-assign suppression path
}
