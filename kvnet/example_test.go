package kvnet_test

import (
	"fmt"
	"log"

	"kvdirect"
	"kvdirect/kvnet"
)

func Example() {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	srv, err := kvnet.Serve(store, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	client, err := kvnet.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	_ = client.Put([]byte("k"), []byte("v")) //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	v, found, _ := client.Get([]byte("k"))
	fmt.Println(string(v), found)

	old, _ := client.FetchAdd([]byte("seq"), 1)
	fmt.Println(old)
	// Output:
	// v true
	// 0
}

func ExampleClient_Do() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	srv, _ := kvnet.Serve(store, "127.0.0.1:0")
	defer srv.Close()
	client, _ := kvnet.Dial(srv.Addr())
	defer client.Close()

	// One packet, many operations: dependent ops see each other's
	// effects because the server applies a batch in order.
	res, _ := client.Do([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("a"), Value: []byte("1")},
		{Code: kvdirect.OpGet, Key: []byte("a")},
	})
	fmt.Println(res[0].OK(), string(res[1].Value))
	// Output: true 1
}

func ExampleBatcher() {
	store, _ := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	defer store.Close()
	srv, _ := kvnet.Serve(store, "127.0.0.1:0")
	defer srv.Close()
	client, _ := kvnet.Dial(srv.Addr())
	defer client.Close()

	b := client.NewBatcher(8)
	acked := 0
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		//lint:allow statuserr -- example brevity; the ack callback carries the result
		_ = b.Submit(kvdirect.Op{Code: kvdirect.OpPut, Key: key, Value: key},
			func(r kvdirect.Result) {
				if r.OK() {
					acked++
				}
			})
	}
	_ = b.Flush() //lint:allow statuserr -- example brevity; cannot fail on a fresh store
	fmt.Println(acked)
	// Output: 20
}
