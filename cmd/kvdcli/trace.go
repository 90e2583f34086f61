package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"kvdirect/internal/telemetry"
)

// runTrace renders distributed traces scraped from a kvdserver -metrics
// endpoint's /debug/traces:
//
//	kvdcli -metrics host:port trace             recent traces, one tree each
//	kvdcli -metrics host:port trace <hex id>    one trace by id
//	kvdcli -metrics host:port trace -limit N    at most N recent traces
func runTrace(out io.Writer, metrics string, args []string) error {
	if metrics == "" {
		return fmt.Errorf("trace needs -metrics host:port (the kvdserver -metrics address)")
	}
	url := "http://" + metrics + "/debug/traces"
	limit := 0
	var id string
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-limit" && i+1 < len(args):
			i++
			if _, err := fmt.Sscan(args[i], &limit); err != nil || limit <= 0 {
				return fmt.Errorf("trace: bad -limit %q", args[i])
			}
		case strings.HasPrefix(args[i], "-"):
			return fmt.Errorf("usage: trace [-limit N] [hex trace id]")
		default:
			id = strings.TrimPrefix(args[i], "0x")
		}
	}
	switch {
	case id != "":
		url += "?trace=" + id
	case limit > 0:
		url += fmt.Sprintf("?limit=%d", limit)
	}
	var traces []*telemetry.Trace
	if err := getJSON(url, &traces); err != nil {
		return err
	}
	if len(traces) == 0 {
		fmt.Fprintln(out, "(no traces — is sampling on? kvgw TraceSampleEvery, or send a FlagTrace request)")
		return nil
	}
	for i, tr := range traces {
		if i > 0 {
			fmt.Fprintln(out)
		}
		printTrace(out, tr)
	}
	return nil
}

// printTrace renders one assembled trace tree, one span per line,
// children indented under their parent.
func printTrace(out io.Writer, tr *telemetry.Trace) {
	c := tr.Counts()
	fmt.Fprintf(out, "trace %016x  %d span(s)  pcie %d/%d r/w  dram %d hit %d miss\n",
		tr.TraceID, tr.Spans, c.PCIeReads, c.PCIeWrites, c.DRAMHits, c.DRAMMisses)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	for _, root := range tr.Roots {
		printNode(w, root, 0)
	}
	_ = w.Flush() //lint:allow statuserr -- CLI stdout flush; a write error has nowhere to go
}

func printNode(w *tabwriter.Writer, n *telemetry.TraceNode, depth int) {
	s := n.Span
	indent := strings.Repeat("  ", depth)
	var stages []string
	for _, st := range s.Stages {
		stages = append(stages, fmt.Sprintf("%s=%s", st.Name, time.Duration(st.Ns)))
	}
	line := fmt.Sprintf("%s%s\t[%08x<-%08x]\t%s\t%s",
		indent, s.Op, s.SpanID, s.Parent, time.Duration(s.TotalNs), strings.Join(stages, " "))
	if s.Err != "" {
		line += "\tERR " + s.Err
	}
	fmt.Fprintln(w, line)
	for _, ch := range n.Children {
		printNode(w, ch, depth+1)
	}
}

// runBlackbox prints the flight recorder's live event ring and the most
// recent anomaly dump from /debug/blackbox:
//
//	kvdcli -metrics host:port blackbox
func runBlackbox(out io.Writer, metrics string, args []string) error {
	if metrics == "" {
		return fmt.Errorf("blackbox needs -metrics host:port (the kvdserver -metrics address)")
	}
	if len(args) != 0 {
		return fmt.Errorf("usage: blackbox")
	}
	var box struct {
		Events   []telemetry.Event   `json:"events"`
		BlackBox *telemetry.BlackBox `json:"black_box"`
	}
	if err := getJSON("http://"+metrics+"/debug/blackbox", &box); err != nil {
		return err
	}
	if len(box.Events) == 0 && box.BlackBox == nil {
		fmt.Fprintln(out, "(flight recorder empty — no anomalies recorded)")
		return nil
	}
	if len(box.Events) > 0 {
		fmt.Fprintf(out, "live ring (%d event(s)):\n", len(box.Events))
		printEvents(out, box.Events)
	}
	if box.BlackBox != nil {
		fmt.Fprintf(out, "\nblack box: trigger %q captured %s (%d event(s)):\n",
			box.BlackBox.Trigger,
			time.Unix(0, box.BlackBox.CapturedUnixNs).Format(time.RFC3339Nano),
			len(box.BlackBox.Events))
		printEvents(out, box.BlackBox.Events)
	}
	return nil
}

func printEvents(out io.Writer, events []telemetry.Event) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  seq\ttime\tkind\tshard\ta\tb")
	for _, e := range events {
		shard := fmt.Sprint(e.Shard)
		if e.Shard < 0 {
			shard = "-"
		}
		fmt.Fprintf(w, "  %d\t%s\t%s\t%s\t%d\t%d\n",
			e.Seq, time.Unix(0, e.UnixNs).Format("15:04:05.000000"), e.Kind, shard, e.A, e.B)
	}
	_ = w.Flush() //lint:allow statuserr -- CLI stdout flush; a write error has nowhere to go
}
