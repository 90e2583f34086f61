package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// logBuffer collects the command's log lines; the test learns the
// ephemeral listen addresses from them, exactly as an operator would.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) find(re *regexp.Regexp) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := re.FindSubmatch(l.buf.Bytes()); m != nil {
		return string(m[1])
	}
	return ""
}

// server is one in-process kvdserver and what the script needs of it.
type server struct {
	t                      *testing.T
	admin, metrics, mcAddr string
	stop                   chan os.Signal
	done                   chan error
}

func startServer(t *testing.T, shards, replicas int) *server {
	t.Helper()
	logs := &logBuffer{}
	log.SetOutput(logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	s := &server{t: t, stop: make(chan os.Signal, 1), done: make(chan error, 1)}
	go func() {
		s.done <- run([]string{
			"-addr", "127.0.0.1:0", "-mem", strconv.Itoa(8 << 20),
			"-shards", strconv.Itoa(shards), "-replicas", strconv.Itoa(replicas),
			"-memcache", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		}, s.stop)
	}()
	// run starts the admin listener last, so its line means all are up.
	adminLine := regexp.MustCompile(`admin on http://([^/\s]+)/`)
	for deadline := time.Now().Add(10 * time.Second); s.admin == ""; s.admin = logs.find(adminLine) {
		select {
		case err := <-s.done:
			t.Fatalf("kvdserver exited during start-up: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("kvdserver never logged its admin address")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.metrics = logs.find(regexp.MustCompile(`metrics on http://([^/\s]+)/`))
	s.mcAddr = logs.find(regexp.MustCompile(`memcache gateway on (\S+)`))
	if s.metrics == "" || s.mcAddr == "" {
		t.Fatalf("metrics %q / memcache %q address not logged", s.metrics, s.mcAddr)
	}
	return s
}

func (s *server) http(method, addr, path string) string {
	s.t.Helper()
	req, err := http.NewRequest(method, "http://"+addr+path, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		s.t.Fatalf("%s %s: status %d, err %v: %s", method, path, resp.StatusCode, err, body)
	}
	return string(body)
}

// native is a network client of the whole topology, dialed from the
// route table the admin endpoint publishes, so the script runs unchanged
// against any shard and replica count.
type native struct {
	t *testing.T
	c *kvnet.Client
}

func (s *server) dial() native {
	s.t.Helper()
	var routes map[string]kvnet.ShardAddrs
	if err := json.Unmarshal([]byte(s.http("GET", s.admin, "/routes")), &routes); err != nil {
		s.t.Fatal(err)
	}
	table := make([]kvnet.ShardAddrs, len(routes))
	for i := range table {
		table[i] = routes[strconv.Itoa(i)]
	}
	c, err := kvnet.DialReplicaShards(table, kvnet.Options{})
	if err != nil {
		s.t.Fatalf("dial %v: %v", table, err)
	}
	s.t.Cleanup(func() { _ = c.Close() })
	return native{s.t, c}
}

func (n native) do(ops ...kvdirect.Op) []kvdirect.Result {
	n.t.Helper()
	res, err := n.c.Do(ops)
	if err != nil {
		n.t.Fatal(err)
	}
	return res
}

func (n native) scan(limit int) []kvdirect.ScanEntry {
	n.t.Helper()
	entries, _, err := n.c.ScanPage(nil, limit)
	if err != nil {
		n.t.Fatal(err)
	}
	return entries
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i)) }

// script drives every surface of a running kvdserver and returns a
// transcript of what it observed, free of anything (addresses, timings)
// that may differ between topologies.
func script(t *testing.T, s *server) []string {
	var out []string
	say := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	results := func(what string, res []kvdirect.Result) {
		for i, r := range res {
			say("%s %d: status %d value %q", what, i, r.Status, r.Value)
		}
	}
	n := s.dial()

	const keys = 24
	var puts, gets []kvdirect.Op
	for i := 0; i < keys; i++ {
		puts = append(puts, kvdirect.Op{Code: kvdirect.OpPut, Key: key(i), Value: []byte(fmt.Sprintf("value-%d", i))})
		gets = append(gets, kvdirect.Op{Code: kvdirect.OpGet, Key: key(i)})
	}
	gets = append(gets, kvdirect.Op{Code: kvdirect.OpGet, Key: []byte("never-written")})
	results("put", n.do(puts...))
	results("delete", n.do(
		kvdirect.Op{Code: kvdirect.OpDelete, Key: key(3)},
		kvdirect.Op{Code: kvdirect.OpDelete, Key: key(3)},
		kvdirect.Op{Code: kvdirect.OpDelete, Key: key(17)}))
	one := make([]byte, 8)
	one[0] = 1
	incr := kvdirect.Op{Code: kvdirect.OpUpdateScalar, Key: []byte("counter"), FuncID: kvdirect.FnAdd, ElemWidth: 8, Param: one}
	results("incr", n.do(incr, incr, incr))
	results("get", n.do(gets...))
	for i, e := range n.scan(100) {
		say("scan %d: %q = %q", i, e.Key, e.Value)
	}

	mc, err := kvgw.DialClient(s.mcAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if err := mc.Auth("script", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if _, err := mc.Set(key(i), []byte(fmt.Sprintf("mc-%d", i)), uint32(i)); err != nil {
			t.Fatalf("memcache set %d: %v", i, err)
		}
	}
	mcGets := func(what string) {
		for i := 0; i < keys; i++ {
			v, flags, _, found, err := mc.Get(key(i))
			if err != nil {
				t.Fatalf("memcache get %d: %v", i, err)
			}
			say("%s %d: %q flags %d found %v", what, i, v, flags, found)
		}
	}
	mcGets("memcache get")

	metrics := s.http("GET", s.metrics, "/metrics")
	for _, name := range []string{"kvd_server_ops", "kvd_repl_promotions", "kvd_gw_batches"} {
		say("metrics has %s: %v", name, strings.Contains(metrics, name))
	}

	// Live migration of shard 0, whatever the topology — then the same
	// reads again, natively from the re-fetched routes and through the
	// gateway, which follows the move in-process.
	before := s.http("GET", s.admin, "/routes")
	s.http("POST", s.admin, "/migrate?shard=0")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var migs []kvrepl.MigrationStatus
		if err := json.Unmarshal([]byte(s.http("GET", s.admin, "/migrations")), &migs); err != nil {
			t.Fatal(err)
		}
		if len(migs) == 1 && migs[0].State == "done" && s.http("GET", s.admin, "/routes") != before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration never finished: %+v", migs)
		}
	}
	results("get after migrate", s.dial().do(gets...))
	mcGets("memcache get after migrate")
	return out
}

// TestTopologies is the first cmd/ test: the one serving path, started
// in-process as 1×1, 3×1, 1×3 and 2×2, answers one script identically
// and shuts down clean.
func TestTopologies(t *testing.T) {
	var want []string
	for _, top := range [][2]int{{1, 1}, {3, 1}, {1, 3}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", top[0], top[1]), func(t *testing.T) {
			s := startServer(t, top[0], top[1])
			got := script(t, s)
			s.stop <- os.Interrupt
			select {
			case err := <-s.done:
				if err != nil {
					t.Fatalf("shutdown: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("kvdserver did not shut down")
			}
			if c, err := net.DialTimeout("tcp", s.admin, time.Second); err == nil {
				_ = c.Close()
				t.Error("admin listener survived shutdown")
			}
			if want == nil {
				want = got
				if len(want) < 100 {
					t.Fatalf("script observed only %d things", len(want))
				}
				return
			}
			if len(got) != len(want) {
				t.Fatalf("script observed %d things, the first topology %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("differs from the first topology:\n got %s\nwant %s", got[i], want[i])
				}
			}
		})
	}
}

// TestRunErrors: bad flags and untakeable listeners come back as errors
// from run (main's one log.Fatal), with nothing left behind.
func TestRunErrors(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	taken := ln.Addr().String()
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-shards", "0"},
		{"-addr", "127.0.0.1"},
		{"-addr", taken},
		{"-addr", "127.0.0.1:0", "-mem", "8388608", "-metrics", taken},
		{"-addr", "127.0.0.1:0", "-mem", "8388608", "-memcache", taken},
		{"-addr", "127.0.0.1:0", "-mem", "8388608", "-memcache", "127.0.0.1:0", "-tenants", "/no/such/file"},
	} {
		stop := make(chan os.Signal, 1)
		stop <- os.Interrupt // a run that wrongly starts must still return
		if err := run(args, stop); err == nil {
			t.Errorf("run %v: no error", args)
		}
	}
}
