// Package experiments regenerates every table and figure of the
// KV-Direct evaluation (paper §5) from this repository's implementations
// and models. Each Fig*/Table* function returns one or more Tables whose
// rows mirror the series the paper plots, and whose Claims state, once,
// what the paper reports and the bound the reproduction must meet;
// cmd/kvdbench prints them, and TestFigures checks the claims and holds
// every cell to the committed FIGURES.json.
//
// Experiments run at a configurable Scale: Quick keeps everything
// CI-sized; Full uses larger memories and op counts for smoother curves.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is one reproduced table or figure, as printable rows.
type Table struct {
	ID      string // e.g. "fig11a"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
	Claims  []Claim
	// Timed names the columns that hold wall-clock time: they differ run
	// to run, so no claim rests on them and FIGURES.json does not hold
	// them.
	Timed []string
}

// Claim is one thing the paper reports, checked against the value this
// reproduction computes for it: the claim holds when Lo <= Got <= Hi.
// A one-sided claim leaves the other bound at ±math.MaxFloat64.
type Claim struct {
	ID     string // unique across experiments, e.g. "fig13a/single-key-ooo"
	Paper  string // what the paper reports
	Got    float64
	Lo, Hi float64
}

func within(id, paper string, got, lo, hi float64) Claim {
	return Claim{ID: id, Paper: paper, Got: got, Lo: lo, Hi: hi}
}

func atLeast(id, paper string, got, lo float64) Claim {
	return within(id, paper, got, lo, math.MaxFloat64)
}

func atMost(id, paper string, got, hi float64) Claim {
	return within(id, paper, got, -math.MaxFloat64, hi)
}

// MarshalJSON writes a non-finite Got, Lo or Hi as null: an unreachable
// point makes Got NaN, a gain over a zero rate makes it +Inf, and
// encoding/json rejects both.
func (c Claim) MarshalJSON() ([]byte, error) {
	finite := func(v float64) *float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return &v
	}
	return json.Marshal(struct {
		ID, Paper   string
		Got, Lo, Hi *float64
	}{c.ID, c.Paper, finite(c.Got), finite(c.Lo), finite(c.Hi)})
}

// Holds reports whether Got lies within the claim's bounds.
func (c Claim) Holds() bool { return c.Got >= c.Lo && c.Got <= c.Hi }

// Value formats Got to four significant digits, as FIGURES.json and
// EXPERIMENTS.md record it.
func (c Claim) Value() string { return strconv.FormatFloat(c.Got, 'g', 4, 64) }

// Bound formats the claim's bounds.
func (c Claim) Bound() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch {
	case c.Lo == c.Hi:
		return "= " + g(c.Lo)
	case c.Hi == math.MaxFloat64:
		return "≥ " + g(c.Lo)
	case c.Lo == -math.MaxFloat64:
		return "≤ " + g(c.Hi)
	}
	return "[" + g(c.Lo) + ", " + g(c.Hi) + "]"
}

// Verdict is "✓" when the claim holds and "✗" when it does not.
func (c Claim) Verdict() string {
	if c.Holds() {
		return "✓"
	}
	return "✗"
}

// Add appends one formatted row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text, then each claim with its
// verdict.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	for _, c := range t.Claims {
		fmt.Fprintf(&b, "claim %s %s: %s, bound %s; paper: %s\n", c.Verdict(), c.ID, c.Value(), c.Bound(), c.Paper)
	}
	return b.String()
}

// Scale sizes an experiment run.
type Scale struct {
	MemBytes   uint64 // simulated host KVS size per store
	Ops        int    // measured operations per data point
	MergeSlots int    // free slab slots for the Figure 12 merge
	SimOps     int    // ops per timing-simulation point
	Seed       int64
}

// Quick is the CI-sized scale (sub-second per figure).
func Quick() Scale {
	return Scale{MemBytes: 4 << 20, Ops: 4000, MergeSlots: 1 << 20, SimOps: 60000, Seed: 1}
}

// Full is the report-quality scale used by cmd/kvdbench.
func Full() Scale {
	return Scale{MemBytes: 64 << 20, Ops: 40000, MergeSlots: 40 << 20, SimOps: 400000, Seed: 1}
}

// unreachable marks a point a design cannot reach; cell2 prints it as "—".
var unreachable = math.NaN()

func cell2(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	return f2(v)
}

func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func mops(v float64) string { return fmt.Sprintf("%.1f", v/1e6) }
func gbps(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
