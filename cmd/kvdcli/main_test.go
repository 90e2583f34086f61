package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"kvdirect"
	"kvdirect/kvrepl"
)

// TestCommandsAgainstDeployment drives the data-wire commands through
// run — a stdin script, then one-shot arguments — against an in-process
// 1 × 1 deployment (what kvdserver serves by default) and holds the
// transcript, the stats table's op-latency row included: a replica's
// apply path once recorded no latency at all, and the row went missing.
func TestCommandsAgainstDeployment(t *testing.T) {
	d, err := kvrepl.Deploy("127.0.0.1:0", 1, 1, 0, kvdirect.Config{MemoryBytes: 8 << 20}, kvrepl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	addr := d.Routes()[0].Primary

	var out bytes.Buffer
	script := strings.Join([]string{
		"put hello world", "get hello", "get nope", "incr n 5", "incr n",
		"put a 1", "put b 2", "scan a -limit 2", "del hello", "del hello",
		"bogus", "", "quit", "get never-reached",
	}, "\n")
	if err := run([]string{"-addr", addr}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`> OK`, `> "world"`, `> (not found)`, `> 0 -> 5`, `> 5 -> 6`,
		`> OK`, `> OK`, `> "a" = "1"`, `"b" = "2"`, `(2 entries)`, `> OK`, `> (not found)`,
		`> error: unknown command "bogus"`, `> > `,
	}, "\n")
	if out.String() != want {
		t.Fatalf("transcript:\n%s\nwant:\n%s", out.String(), want)
	}

	// The script was ten ops; the scrape that renders the table is the
	// eleventh by the time it is counted.
	out.Reset()
	if err := run([]string{"-addr", addr, "stats"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		`(?m)^server\.ops +11$`,
		`(?m)^op latency +p50 \S+  p90 \S+  p99 \S+  p999 \S+  max \S+$`,
		`(?m)^batch size +p50 1  p99 1$`,
		`(?m)^keys +3$`,
	} {
		if !regexp.MustCompile(row).MatchString(out.String()) {
			t.Errorf("stats table has no row matching %s:\n%s", row, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-addr", addr, "stats", "-raw"}, nil, &out); err != nil || !strings.Contains(out.String(), "repl_role=primary\n") {
		t.Errorf("stats -raw: err %v, text:\n%s", err, out.String())
	}
	if err := run([]string{"-addr", addr, "get"}, nil, &out); err == nil || !strings.Contains(err.Error(), "usage: get") {
		t.Errorf("a malformed one-shot command returned %v, want its usage as the error", err)
	}
}
