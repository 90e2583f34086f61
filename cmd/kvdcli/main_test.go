package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"kvdirect"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// TestCommandsAgainstDeployment drives the data-wire commands through
// run — a stdin script, then one-shot arguments — against an in-process
// 1 × 1 deployment (what kvdserver serves by default) and a 3 × 1 one
// dialed by its shard list, and holds both to one transcript: the shard
// count is the server's business, not the operator's. The stats table's
// op-latency row is held too: a replica's apply path once recorded no
// latency at all, and the row went missing.
func TestCommandsAgainstDeployment(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%dx1", shards), func(t *testing.T) { commandsAgainst(t, shards) })
	}
}

func commandsAgainst(t *testing.T, shards int) {
	d, err := kvrepl.Deploy("127.0.0.1:0", shards, 1, 0, kvdirect.Config{MemoryBytes: 8 << 20}, kvrepl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var primaries []string
	for _, r := range d.Routes() {
		primaries = append(primaries, r.Primary)
	}
	addr := strings.Join(primaries, ",")

	var out bytes.Buffer
	script := strings.Join([]string{
		"put hello world", "get hello", "get nope", "incr n 5", "incr n",
		"put a 1", "put b 2", "put c 3", "put d 4", "scan a -limit 3", "del hello", "del hello",
		"register 60 min(v + p, 100)", "put vec abcd", "reduce vec add",
		"bogus", "", "quit", "get never-reached",
	}, "\n")
	if err := run([]string{"-addr", addr}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`> OK`, `> "world"`, `> (not found)`, `> 0 -> 5`, `> 5 -> 6`,
		`> OK`, `> OK`, `> OK`, `> OK`, `> "a" = "1"`, `"b" = "2"`, `"c" = "3"`, `(3 entries)`, `> OK`, `> (not found)`,
		`> OK`, `> OK`, fmt.Sprint("> ", binary.LittleEndian.Uint32([]byte("abcd"))),
		`> error: unknown command "bogus"`, `> > `,
	}, "\n")
	if out.String() != want {
		t.Fatalf("transcript:\n%s\nwant:\n%s", out.String(), want)
	}

	// The script was 13 keyed ops, each served by its key's shard, and a
	// scan and a register, each served by every shard; the scrape that
	// renders the table is one more on every shard by the time it is
	// counted there. The table sums the shards.
	out.Reset()
	if err := run([]string{"-addr", addr, "stats"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		fmt.Sprintf(`(?m)^server\.ops +%d$`, 13+3*shards),
		`(?m)^op latency +p50 \S+  p90 \S+  p99 \S+  p999 \S+  max \S+$`,
		`(?m)^batch size +p50 1  p99 1$`,
		`(?m)^keys +6$`,
	} {
		if !regexp.MustCompile(row).MatchString(out.String()) {
			t.Errorf("stats table has no row matching %s:\n%s", row, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-addr", addr, "stats", "-raw"}, nil, &out); err != nil || strings.Count(out.String(), "repl_role=primary\n") != shards {
		t.Errorf("stats -raw: err %v, text:\n%s", err, out.String())
	}
	if err := run([]string{"-addr", addr, "get"}, nil, &out); err == nil || !strings.Contains(err.Error(), "usage: get") {
		t.Errorf("a malformed one-shot command returned %v, want its usage as the error", err)
	}

	// The λ the script registered is installed wherever a key can live: a
	// capped add saturates on a key of every shard.
	c, err := kvnet.DialReplicaShards(d.Routes(), kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	covered := map[int]bool{}
	for i := 0; len(covered) < shards; i++ {
		key := []byte(fmt.Sprintf("capped-%d", i))
		covered[kvdirect.ShardOf(key, shards)] = true
		add := kvdirect.Op{Code: kvdirect.OpUpdateScalar, Key: key, FuncID: 60, ElemWidth: 8, Param: binary.LittleEndian.AppendUint64(nil, 70)}
		res, err := c.Do([]kvdirect.Op{add, add, {Code: kvdirect.OpGet, Key: key}})
		if err != nil {
			t.Fatal(err)
		}
		if !res[2].OK() || binary.LittleEndian.Uint64(res[2].Value) != 100 {
			t.Fatalf("70+70 under λ 60 on shard %d: %+v", kvdirect.ShardOf(key, shards), res)
		}
	}
}
