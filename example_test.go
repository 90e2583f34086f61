package kvdirect_test

import (
	"encoding/binary"
	"fmt"

	"kvdirect"
)

func ExampleStore() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	_ = store.Put([]byte("answer"), []byte("42")) //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	v, ok := store.Get([]byte("answer"))
	fmt.Println(string(v), ok)
	// Output: 42 true
}

func ExampleStore_Update() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	// Atomic fetch-and-add on an 8-byte counter; a missing key starts at 0.
	old1, _ := store.Update([]byte("seq"), kvdirect.FnAdd, 8, 5)
	old2, _ := store.Update([]byte("seq"), kvdirect.FnAdd, 8, 5)
	fmt.Println(old1, old2)
	// Output: 0 5
}

func ExampleStore_Reduce() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	vec := make([]byte, 4*4)
	for i := uint32(0); i < 4; i++ {
		binary.LittleEndian.PutUint32(vec[i*4:], i+1)
	}
	_ = store.Put([]byte("v"), vec) //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	sum, _ := store.Reduce([]byte("v"), kvdirect.FnAdd, 4, 0)
	fmt.Println(sum)
	// Output: 10
}

func ExampleStore_UpdateScalarToVector() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	vec := make([]byte, 4*3)
	for i := uint32(0); i < 3; i++ {
		binary.LittleEndian.PutUint32(vec[i*4:], i)
	}
	_ = store.Put([]byte("v"), vec) //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	// One network op updates every element on the NIC.
	_, _ = store.UpdateScalarToVector([]byte("v"), kvdirect.FnAdd, 4, 100) //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	now, _ := store.Get([]byte("v"))
	fmt.Println(binary.LittleEndian.Uint32(now), binary.LittleEndian.Uint32(now[4:]))
	// Output: 100 101
}

func ExampleStore_CompareAndSwap() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, 1)
	_ = store.Put([]byte("lock"), b) //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	_, swapped, _ := store.CompareAndSwap([]byte("lock"), 8, 1, 2)
	_, again, _ := store.CompareAndSwap([]byte("lock"), 8, 1, 3)
	fmt.Println(swapped, again)
	// Output: true false
}

func ExampleStore_RegisterExpression() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	// Compile a user-defined λ (the §3.2 active-message path): a counter
	// that saturates at 100.
	_ = store.RegisterExpression(42, "min(v + p, 100)") //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	for i := 0; i < 30; i++ {
		_, _ = store.Update([]byte("capped"), 42, 8, 7) //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	}
	v, _ := store.Get([]byte("capped"))
	fmt.Println(binary.LittleEndian.Uint64(v))
	// Output: 100
}

func ExampleStore_SubmitUpdate() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	// Pipelined dependent atomics execute by data forwarding in the
	// reservation station (one op per clock in hardware).
	for i := 0; i < 1000; i++ {
		store.SubmitUpdate([]byte("hot"), kvdirect.FnAdd, 8, 1, nil)
	}
	store.Flush()
	v, _ := store.Get([]byte("hot"))
	fmt.Println(binary.LittleEndian.Uint64(v), store.Stats().Engine.MergeRatio() > 0.9)
	// Output: 1000 true
}

func ExampleExecute() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	// A batch executes in order; dependent ops see each other's effects.
	res := kvdirect.Execute(store, []kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("k"), Value: []byte("v1")},
		{Code: kvdirect.OpGet, Key: []byte("k")},
	})
	fmt.Println(res[0].OK(), string(res[1].Value))
	// Output: true v1
}
