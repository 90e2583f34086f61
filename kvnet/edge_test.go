package kvnet_test

import (
	"net"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// TestServerCloseRacesAccept: a connection accepted just before Close
// shut the listener, but tracked after Close had walked the live
// connections, was never closed — its handler sat in its first read and
// Close never returned. Dial in a tight loop while closing; every Close
// must come back, on every owner of a kvnet.Edge: the native server, the
// memcache gateway and a replica's replication endpoint.
func TestServerCloseRacesAccept(t *testing.T) {
	cfg := kvdirect.Config{MemoryBytes: 8 << 20}
	store, err := kvdirect.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	backend, err := kvnet.Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = backend.Close() })
	reg, err := kvgw.NewRegistry(kvgw.RegistryConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each owner starts serving and returns the address to dial and its
	// Close.
	owners := []struct {
		name  string
		start func() (string, func() error, error)
	}{
		{"kvnet.Serve", func() (string, func() error, error) {
			srv, err := kvnet.Serve(store, "127.0.0.1:0")
			if err != nil {
				return "", nil, err
			}
			return srv.Addr(), srv.Close, nil
		}},
		{"kvgw.Serve", func() (string, func() error, error) {
			gw, err := kvgw.Serve(backend, reg, "127.0.0.1:0", kvgw.Options{})
			if err != nil {
				return "", nil, err
			}
			return gw.Addr(), gw.Close, nil
		}},
		{"kvrepl.NewReplica", func() (string, func() error, error) {
			r, err := kvrepl.NewReplica(0, 0, 1, cfg, "127.0.0.1:0", "127.0.0.1:0", kvrepl.Options{})
			if err != nil {
				return "", nil, err
			}
			return r.ReplAddr(), r.Close, nil
		}},
	}
	for _, o := range owners {
		t.Run(o.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				addr, closeOwner, err := o.start()
				if err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				dialed := make(chan struct{})
				var conns []net.Conn
				go func() {
					defer close(dialed)
					for {
						select {
						case <-stop:
							return
						default:
						}
						if c, err := net.Dial("tcp", addr); err == nil {
							conns = append(conns, c) // held open: only the owner may end them
						}
					}
				}()
				time.Sleep(time.Duration(i%5) * 100 * time.Microsecond) // let some dials land first
				closed := make(chan struct{})
				go func() {
					_ = closeOwner() //lint:allow statuserr -- the listener's close error is not what this test is about
					close(closed)
				}()
				select {
				case <-closed:
				case <-time.After(2 * time.Second):
					t.Fatalf("iteration %d: Close hung with a connection accepted during shutdown", i)
				}
				close(stop)
				<-dialed
				for _, c := range conns {
					_ = c.Close()
				}
			}
		})
	}
}
