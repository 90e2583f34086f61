// Command kvdcli is a line-oriented client for a KV-Direct server.
//
// Usage:
//
//	kvdcli [-addr host:port[,host:port...]] [command args...]
//
// -addr takes the deployment's shard list, one primary per shard in
// shard order, as kvdload does; keys route to their owner, scans merge,
// register and stats cover every shard. With arguments it runs one
// command and exits; without, it reads commands from stdin (one per
// line):
//
//	get <key>
//	put <key> <value>
//	del <key>
//	scan <start> [-limit N]   ordered range: up to N pairs (default 10)
//	                          in ascending key order from the first
//	                          key >= start
//	incr <key> [delta]        atomic fetch-and-add on an 8-byte counter
//	reduce <key> <add|max>    fold a 4-byte-element vector on the server
//	register <id> <expr>      compile and install an update λ on every shard
//	stats [-watch] [-raw] [-http host:port]
//	                          telemetry table (-watch refreshes each
//	                          second with live ops/s; -raw dumps the
//	                          legacy key=value counter text; -http
//	                          scrapes a kvdserver -metrics endpoint
//	                          instead of the data wire, merging every
//	                          replica and the coordinator)
//	bench <n>                 time n pipelined PUT+GET pairs
//
// Against a kvdserver -memcache gateway, mcstat authenticates as a
// tenant and prints its STAT block (usage, quotas, hit counts):
//
//	kvdcli -mc host:11211 mcstat <tenant> [secret]
//
// Against a replicated kvdserver (-replicas n -admin host:port), the
// migrate command drives the admin endpoint instead of the data port:
//
//	kvdcli -admin host:port migrate <shard>   live-migrate a shard and
//	                                          watch progress to cutover
//	kvdcli -admin host:port migrate status    list migrations
//	kvdcli -admin host:port migrate routes    print the routing table
//
// Against a kvdserver -metrics endpoint, trace and blackbox render the
// observability debug handlers:
//
//	kvdcli -metrics host:port trace [-limit N] [hex id]
//	                                          recent distributed traces as
//	                                          trees (or one trace by id)
//	kvdcli -metrics host:port blackbox        the flight recorder's event
//	                                          ring and last anomaly dump
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"kvdirect"
	"kvdirect/kvnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatalf("kvdcli: %v", err)
	}
}

// run is the whole command: flags, then one command from args — or,
// without one, a command per line of stdin until it ends or says quit —
// with everything it prints going to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("kvdcli", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7890", "server address, or the comma-separated shard list")
	admin := fs.String("admin", "", "kvdserver admin address (for the migrate command)")
	mc := fs.String("mc", "", "kvgw memcache gateway address (for the mcstat command)")
	metrics := fs.String("metrics", "", "kvdserver metrics address (for the trace and blackbox commands)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; that was the whole request
		}
		return err
	}
	args = fs.Args()

	// migrate, trace, blackbox and mcstat talk to other endpoints — the
	// admin and metrics HTTP handlers, the memcache gateway — so they are
	// dispatched before the data-wire dial and work while routes are in
	// flux.
	if len(args) > 0 {
		switch args[0] {
		case "migrate":
			return runMigrate(stdout, *admin, args[1:])
		case "trace":
			return runTrace(stdout, *metrics, args[1:])
		case "blackbox":
			return runBlackbox(stdout, *metrics, args[1:])
		case "mcstat":
			if *mc == "" {
				return fmt.Errorf("mcstat needs -mc host:port (the kvdserver -memcache address)")
			}
			return runMcstat(stdout, *mc, args[1:])
		}
	}

	client, err := kvnet.DialShards(strings.Split(*addr, ","))
	if err != nil {
		return err
	}
	defer client.Close()
	if len(args) > 0 {
		return command(stdout, client, args)
	}

	sc := bufio.NewScanner(stdin)
	fmt.Fprint(stdout, "> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			if fields[0] == "quit" || fields[0] == "exit" {
				return nil
			}
			if err := command(stdout, client, fields); err != nil {
				fmt.Fprintf(stdout, "error: %v\n", err)
			}
		}
		fmt.Fprint(stdout, "> ")
	}
	return sc.Err()
}

// command runs one parsed command line against the connected server.
func command(out io.Writer, c *kvnet.Client, args []string) error {
	switch args[0] {
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		v, found, err := c.Get([]byte(args[1]))
		if err != nil {
			return err
		}
		if !found {
			fmt.Fprintln(out, "(not found)")
			return nil
		}
		fmt.Fprintf(out, "%q\n", v)

	case "put":
		if len(args) != 3 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		if err := c.Put([]byte(args[1]), []byte(args[2])); err != nil {
			return err
		}
		fmt.Fprintln(out, "OK")

	case "del":
		if len(args) != 2 {
			return fmt.Errorf("usage: del <key>")
		}
		found, err := c.Delete([]byte(args[1]))
		if err != nil {
			return err
		}
		if found {
			fmt.Fprintln(out, "OK")
		} else {
			fmt.Fprintln(out, "(not found)")
		}

	case "scan":
		if len(args) < 2 {
			return fmt.Errorf("usage: scan <start> [-limit N]")
		}
		limit := 10
		rest := args[2:]
		for i := 0; i < len(rest); i++ {
			if rest[i] == "-limit" && i+1 < len(rest) {
				n, err := strconv.Atoi(rest[i+1])
				if err != nil {
					return err
				}
				limit = n
				i++
				continue
			}
			return fmt.Errorf("usage: scan <start> [-limit N]")
		}
		entries, err := c.Scan([]byte(args[1]), limit)
		if err != nil {
			return err
		}
		for _, e := range entries {
			fmt.Fprintf(out, "%q = %q\n", e.Key, e.Value)
		}
		fmt.Fprintf(out, "(%d entries)\n", len(entries))

	case "incr":
		if len(args) < 2 || len(args) > 3 {
			return fmt.Errorf("usage: incr <key> [delta]")
		}
		delta := uint64(1)
		if len(args) == 3 {
			d, err := strconv.ParseUint(args[2], 10, 64)
			if err != nil {
				return err
			}
			delta = d
		}
		old, err := c.FetchAdd([]byte(args[1]), delta)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d -> %d\n", old, old+delta)

	case "reduce":
		if len(args) != 3 {
			return fmt.Errorf("usage: reduce <key> <add|max>")
		}
		fn := kvdirect.FnAdd
		if args[2] == "max" {
			fn = kvdirect.FnMax
		}
		sum, err := c.Reduce([]byte(args[1]), fn, 4, 0)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, sum)

	case "register":
		if len(args) < 3 {
			return fmt.Errorf("usage: register <id> <expr>")
		}
		id, err := strconv.ParseUint(args[1], 10, 8)
		if err != nil {
			return err
		}
		if err := c.RegisterExpression(uint8(id), strings.Join(args[2:], " "), false); err != nil {
			return err
		}
		fmt.Fprintln(out, "OK")

	case "stats":
		watch, raw, httpAddr := false, false, ""
		rest := args[1:]
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case "-watch":
				watch = true
			case "-raw":
				raw = true
			case "-http":
				if i+1 >= len(rest) {
					return fmt.Errorf("usage: stats [-watch] [-raw] [-http host:port]")
				}
				i++
				httpAddr = rest[i]
			default:
				return fmt.Errorf("usage: stats [-watch] [-raw] [-http host:port]")
			}
		}
		if raw {
			text, err := c.Stats()
			if err != nil {
				return err
			}
			fmt.Fprint(out, text)
			return nil
		}
		return statsTable(out, c, watch, httpAddr)

	case "bench":
		if len(args) != 2 {
			return fmt.Errorf("usage: bench <n>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		return bench(out, c, n)

	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}

// bench issues n PUT+GET pairs in batches of 64 per packet and reports
// round-trip throughput.
func bench(out io.Writer, c *kvnet.Client, n int) error {
	const batch = 64
	start := time.Now()
	done := 0
	for done < n {
		m := batch
		if n-done < m {
			m = n - done
		}
		ops := make([]kvdirect.Op, 0, 2*m)
		for i := 0; i < m; i++ {
			key := []byte(fmt.Sprintf("bench-%08d", done+i))
			ops = append(ops,
				kvdirect.Op{Code: kvdirect.OpPut, Key: key, Value: key},
				kvdirect.Op{Code: kvdirect.OpGet, Key: key})
		}
		res, err := c.Do(ops)
		if err != nil {
			return err
		}
		for i, r := range res {
			if !r.OK() {
				return fmt.Errorf("op %d failed: %s", i, r.Value)
			}
		}
		done += m
	}
	el := time.Since(start)
	fmt.Fprintf(out, "%d PUT+GET pairs in %v (%.0f ops/s over TCP)\n",
		n, el, float64(2*n)/el.Seconds())
	return nil
}
