package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// healthy returns a point that carries every series, with every ns/op at
// 1000 so overheads and changes read directly as per-mille.
func healthy() point {
	p := point{}
	for _, s := range table {
		switch {
		case s.unit == "name":
			p[s.field] = "Benchmark"
		case s.unit == "ns/op":
			p[s.field] = 1000.0
		case s.gate == higher:
			p[s.field] = 150_000.0
		default:
			p[s.field] = 0.0
		}
	}
	return p
}

// with returns a copy of p with the given field set, or deleted when v
// is nil.
func with(p point, field string, v any) point {
	q := point{}
	for k, x := range p {
		q[k] = x
	}
	if v == nil {
		delete(q, field)
	} else {
		q[field] = v
	}
	return q
}

type gateCase struct {
	name      string
	cur, base point
	fails     string // series the failure must name; "" for a pass
}

func TestGateRows(t *testing.T) {
	h := healthy()
	cases := []gateCase{
		{"healthy", h, h, ""},
		{"no baseline", h, nil, ""},
		{"failed queries", with(h, "failed", 1.0), h, "failed"},
		{"late join in fresh point", h, with(h, "cluster_ns_per_op", nil), ""},
		{"series absent from fresh point", with(h, "hybrid_ns_per_op", nil), h, ""},
		{"million q/s rises", with(h, "million_queries_per_sec", 1e9), h, ""},
		{"million q/s drops exactly 25%", with(h, "million_queries_per_sec", 111_000.0), with(h, "million_queries_per_sec", 148_000.0), ""},
		{"million q/s drops past 25%", with(h, "million_queries_per_sec", 111_000.0), with(h, "million_queries_per_sec", 150_000.0), "million_queries_per_sec"},
		{"million q/s at the floor", with(h, "million_queries_per_sec", 100_000.0), with(h, "million_queries_per_sec", 100_000.0), ""},
		{"million q/s under the floor", with(h, "million_queries_per_sec", 99_999.0), with(h, "million_queries_per_sec", 99_999.0), "million_queries_per_sec"},
		{"tracing overhead at budget", with(h, "replay_traced_ns_per_op", 1150.0), with(h, "replay_traced_ns_per_op", 1150.0), ""},
		{"tracing overhead past budget", with(h, "replay_traced_ns_per_op", 1151.0), with(h, "replay_traced_ns_per_op", 1151.0), "replay_traced_ns_per_op"},
		{"monitoring overhead at budget", with(h, "monitor_ns_per_op", 1100.0), with(h, "monitor_ns_per_op", 1100.0), ""},
		{"monitoring overhead past budget", with(h, "monitor_ns_per_op", 1101.0), with(h, "monitor_ns_per_op", 1101.0), "monitor_ns_per_op"},
	}
	// Every lower-is-better row passes at exactly +25% and fails past it;
	// the baseline moves, not the fresh point, so no within-point overhead
	// gate is touched.
	for _, s := range table {
		if s.gate != lower {
			continue
		}
		cases = append(cases,
			gateCase{s.field + " at +25%", h, with(h, s.field, 800.0), ""},
			gateCase{s.field + " past +25%", h, with(h, s.field, 790.0), s.field})
	}
	for _, c := range cases {
		err := check(io.Discard, c.cur, c.base)
		switch {
		case c.fails == "" && err != nil:
			t.Errorf("%s: want a pass, got %v", c.name, err)
		case c.fails != "" && err == nil:
			t.Errorf("%s: want a failure naming %s, got a pass", c.name, c.fails)
		case c.fails != "" && !strings.Contains(err.Error(), c.fails):
			t.Errorf("%s: failure %q does not name %s", c.name, err, c.fails)
		}
	}
}

func committedPoints(t *testing.T) []committed {
	t.Helper()
	pts, err := trajectory(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 9 {
		t.Fatalf("found %d committed points, want at least 9", len(pts))
	}
	return pts
}

// TestCommittedTrajectoryWithinBudget replays the gate over every
// committed step: each point passed against its predecessor when it was
// committed, and a table rewrite must not change that verdict.
func TestCommittedTrajectoryWithinBudget(t *testing.T) {
	pts := committedPoints(t)
	for i := 1; i < len(pts); i++ {
		if err := check(io.Discard, pts[i].p, pts[i-1].p); err != nil {
			t.Errorf("BENCH_%d vs BENCH_%d: %v", pts[i].seq, pts[i-1].seq, err)
		}
	}
}

// TestMarshalKeepsCommittedFormat re-emits every committed point through
// the table and demands the committed bytes back: field names, order and
// number formatting are what the trajectory's readers parse.
func TestMarshalKeepsCommittedFormat(t *testing.T) {
	for _, c := range committedPoints(t) {
		name := fmt.Sprintf("BENCH_%d.json", c.seq)
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.p.marshal(); !bytes.Equal(got, want) {
			t.Errorf("%s re-emitted differently:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

func TestHistoryRendersEveryPoint(t *testing.T) {
	var buf bytes.Buffer
	printHistory(&buf, committedPoints(t))
	out := buf.String()
	for k := 1; k <= 9; k++ {
		if !strings.Contains(out, fmt.Sprintf("BENCH_%d\n", k)) {
			t.Errorf("history lacks BENCH_%d:\n%s", k, out)
		}
	}
	for _, want := range []string{"ns_per_op", "million_queries_per_sec", "monitor_ns_per_op"} {
		if !strings.Contains(out, want) {
			t.Errorf("history lacks series %s:\n%s", want, out)
		}
	}
}
