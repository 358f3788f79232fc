// Command benchguard keeps the repo's perf trajectory, the committed
// BENCH_<k>.json points. It measures a fresh point — every workload in
// internal/benchwork, the same code the root package's Benchmark functions
// run — and gates it against the highest-numbered committed point. Each
// series is one row of the table below; emission, gating and -history all
// loop over it, so adding a series costs one row plus its measurement.
//
// The baseline was measured on whatever machine emitted it, so the
// cross-point gates compare hardware as well as code. The within-point
// overhead gates do not: both numbers come from one run on one host.
//
// Usage:
//
//	go run ./tools/benchguard           # measure and gate; writes nothing
//	go run ./tools/benchguard -write    # also append the point as BENCH_<k+1>.json
//	go run ./tools/benchguard -history  # print the committed trajectory
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"fsdinference"
	"fsdinference/internal/benchwork"
)

// maxRegression is how far a cross-point series may move in its worse
// direction against the baseline point, as a fraction of the baseline.
const maxRegression = 0.25

// gate says how a series is checked.
type gate int

const (
	record gate = iota // recorded, never gated
	lower              // lower is better: may rise at most maxRegression
	higher             // higher is better: may fall at most maxRegression
	zero               // must be 0
)

// A series is one field of a BENCH point.
type series struct {
	field string // JSON key
	unit  string
	gate  gate
	// floor is the smallest value a higher-is-better series may take.
	floor float64
	// over and budget gate a within-point overhead: this series may exceed
	// the series named over in the same point by at most budget.
	over   string
	budget float64
}

// table lists every series in emission order. A point that lacks a series
// (it joined the trajectory later) is not gated on it.
var table = []series{
	{field: "benchmark", unit: "name"},
	{field: "ns_per_op", unit: "ns/op", gate: lower},
	{field: "iterations", unit: "count"},
	{field: "queries", unit: "count"},
	{field: "samples", unit: "count"},
	{field: "failed", unit: "count", gate: zero},
	{field: "p50_ms", unit: "ms"},
	{field: "p95_ms", unit: "ms"},
	{field: "p99_ms", unit: "ms"},
	{field: "total_cost_usd", unit: "USD"},
	{field: "cold_starts", unit: "count"},
	{field: "warm_starts", unit: "count"},
	{field: "cluster_benchmark", unit: "name"},
	{field: "cluster_ns_per_op", unit: "ns/op", gate: lower},
	{field: "allreduce_flat_ns_per_op", unit: "ns/op"},
	{field: "allreduce_tree_ns_per_op", unit: "ns/op", gate: lower},
	{field: "hybrid_ns_per_op", unit: "ns/op", gate: lower},
	{field: "replay_traced_ns_per_op", unit: "ns/op", gate: lower, over: "ns_per_op", budget: 0.15},
	{field: "monitor_ns_per_op", unit: "ns/op", gate: lower, over: "ns_per_op", budget: 0.10},
	{field: "million_queries_per_sec", unit: "queries/sec", gate: higher, floor: 100_000},
}

// A point is one BENCH file: numbers, plus the names of the benchmarks
// that produced them.
type point map[string]any

func (p point) num(field string) (float64, bool) {
	v, ok := p[field].(float64)
	return v, ok
}

// marshal renders p in table order, as json.MarshalIndent would a struct.
func (p point) marshal() []byte {
	var buf bytes.Buffer
	sep := "{\n"
	for _, s := range table {
		v, ok := p[s.field]
		if !ok {
			continue
		}
		data, err := json.Marshal(v)
		if err != nil {
			panic(err) // a point holds only strings and finite numbers
		}
		fmt.Fprintf(&buf, "%s  %q: %s", sep, s.field, data)
		sep = ",\n"
	}
	buf.WriteString("\n}\n")
	return buf.Bytes()
}

// measure runs every benchwork workload once under testing.Benchmark.
func measure() (point, error) {
	var rep *fsdinference.ServiceReport
	replay := testing.Benchmark(func(b *testing.B) { rep = benchwork.ServiceReplay(b, benchwork.Plain) })
	if replay.N == 0 {
		return nil, errors.New("ns_per_op: the workload failed; go test -bench BenchmarkServiceReplay shows why")
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	p := point{
		"benchmark":         "BenchmarkServiceReplay",
		"ns_per_op":         float64(replay.NsPerOp()),
		"iterations":        float64(replay.N),
		"queries":           float64(rep.Queries),
		"samples":           float64(rep.Samples),
		"failed":            float64(rep.Failed),
		"p50_ms":            ms(rep.Latency.P50),
		"p95_ms":            ms(rep.Latency.P95),
		"p99_ms":            ms(rep.Latency.P99),
		"total_cost_usd":    rep.TotalCost.Total(),
		"cold_starts":       float64(rep.ColdStarts),
		"warm_starts":       float64(rep.WarmStarts),
		"cluster_benchmark": "BenchmarkClusterChannel",
	}
	for _, w := range []struct {
		field, bench string
		run          func(*testing.B)
	}{
		{"replay_traced_ns_per_op", "BenchmarkServiceReplayTraced", func(b *testing.B) { benchwork.ServiceReplay(b, benchwork.Traced) }},
		{"monitor_ns_per_op", "BenchmarkServiceReplayMonitored", func(b *testing.B) { benchwork.ServiceReplay(b, benchwork.Monitored) }},
		{"cluster_ns_per_op", "BenchmarkClusterChannel", benchwork.ClusterChannel},
		{"allreduce_flat_ns_per_op", "BenchmarkAllreduce/flat", func(b *testing.B) { benchwork.Allreduce(b, fsdinference.FlatCollective) }},
		{"allreduce_tree_ns_per_op", "BenchmarkAllreduce/tree", func(b *testing.B) { benchwork.Allreduce(b, fsdinference.TreeCollective) }},
		{"hybrid_ns_per_op", "BenchmarkHybridChannel", benchwork.HybridChannel},
		{"million_queries_per_sec", "BenchmarkMillionQueryReplay", benchwork.MillionQueryReplay},
	} {
		r := testing.Benchmark(w.run)
		if r.N == 0 {
			return nil, fmt.Errorf("%s: the workload failed; go test -bench %s shows why", w.field, w.bench)
		}
		p[w.field] = float64(r.NsPerOp())
		if qps, ok := r.Extra["queries/sec"]; ok {
			p[w.field] = qps
		}
	}
	return p, nil
}

// check gates cur against base (nil when there is no earlier point),
// logging each comparison to w. The error names every failing series.
func check(w io.Writer, cur, base point) error {
	var errs []error
	for _, s := range table {
		v, ok := cur.num(s.field)
		if !ok {
			continue
		}
		switch s.gate {
		case zero:
			if v != 0 {
				errs = append(errs, fmt.Errorf("%s is %g, want 0", s.field, v))
			}
		case lower, higher:
			if s.floor > 0 && v < s.floor {
				errs = append(errs, fmt.Errorf("%s %.0f %s is below the %.0f floor", s.field, v, s.unit, s.floor))
			}
			b, ok := base.num(s.field)
			if !ok || b <= 0 {
				fmt.Fprintf(w, "benchguard: %s starts at %.0f %s\n", s.field, v, s.unit)
				break
			}
			change := (v - b) / b
			fmt.Fprintf(w, "benchguard: %s %.0f vs %.0f %s (%+.1f%%)\n", s.field, v, b, s.unit, 100*change)
			if s.gate == higher {
				change = -change
			}
			if change > maxRegression {
				errs = append(errs, fmt.Errorf("%s regressed %.1f%% (> %.0f%% allowed)", s.field, 100*change, 100*maxRegression))
			}
		}
		if o, ok := cur.num(s.over); ok && o > 0 {
			overhead := (v - o) / o
			fmt.Fprintf(w, "benchguard: %s over %s in one point: %+.1f%%\n", s.field, s.over, 100*overhead)
			if overhead > s.budget {
				errs = append(errs, fmt.Errorf("%s costs %.1f%% over %s (> %.0f%% allowed)", s.field, 100*overhead, s.over, 100*s.budget))
			}
		}
	}
	return errors.Join(errs...)
}

// A committed is one BENCH_<seq>.json.
type committed struct {
	seq int
	p   point
}

var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// trajectory reads every BENCH_*.json in dir, in sequence order.
func trajectory(dir string) ([]committed, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var pts []committed
	for _, e := range entries {
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		seq, _ := strconv.Atoi(m[1])
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var p point
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		pts = append(pts, committed{seq, p})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].seq < pts[j].seq })
	return pts, nil
}

// printHistory renders each point's gated series with the change against
// the previous point, which is what the cross-point gate checks.
func printHistory(w io.Writer, pts []committed) {
	for i, c := range pts {
		fmt.Fprintf(w, "BENCH_%d\n", c.seq)
		for _, s := range table {
			v, ok := c.p.num(s.field)
			if !ok || (s.gate != lower && s.gate != higher) {
				continue
			}
			change := "-"
			if i > 0 {
				if b, ok := pts[i-1].p.num(s.field); ok && b > 0 {
					change = fmt.Sprintf("%+.1f%%", 100*(v-b)/b)
				}
			}
			fmt.Fprintf(w, "  %-26s %14.0f %-11s %8s\n", s.field, v, s.unit, change)
		}
	}
}

func main() {
	write := flag.Bool("write", false, "append the fresh point as the next BENCH_<k>.json")
	history := flag.Bool("history", false, "print the committed trajectory and exit")
	flag.Parse()
	log.SetFlags(0)

	pts, err := trajectory(".")
	if err != nil {
		log.Fatalf("benchguard: %v", err)
	}
	if *history {
		printHistory(os.Stdout, pts)
		return
	}
	cur, err := measure()
	if err != nil {
		log.Fatalf("benchguard: %v", err)
	}
	fmt.Printf("benchguard: fresh point\n%s", cur.marshal())
	var base point
	next := 1
	if len(pts) > 0 {
		last := pts[len(pts)-1]
		base, next = last.p, last.seq+1
		fmt.Printf("benchguard: baseline BENCH_%d.json\n", last.seq)
	}
	if *write {
		name := fmt.Sprintf("BENCH_%d.json", next)
		if err := os.WriteFile(name, cur.marshal(), 0o644); err != nil {
			log.Fatalf("benchguard: %v", err)
		}
		fmt.Printf("benchguard: wrote %s\n", name)
	}
	if err := check(os.Stdout, cur, base); err != nil {
		log.Fatalf("benchguard: %s", strings.ReplaceAll(err.Error(), "\n", "\nbenchguard: "))
	}
	fmt.Println("benchguard: within budget")
}
