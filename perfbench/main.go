// Command perfbench is the repository benchmark. Each workload replays a
// trace through a Service as an open loop in simulated time, in fresh
// processes timed by this one, and reports the host's cost of the
// simulation (set-up, throughput, retained memory) next to the simulated
// system's outcome (latency, latency-limit misses, dollar cost). Every
// run passes a correctness gate: verified outputs and byte-identical
// reports across processes. With -trace 1 it reports per-layer numbers
// instead: host CPU by module from a CPU profile, simulated self time by
// span name, and simulated work counts.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	bash perfbench/run.sh --workload channel-day --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md in this
// directory for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// runBudget bounds one benchmark invocation, children included; a run
// stops starting children once the next one might not finish in it.
const runBudget = 160 * time.Second

// minTimed is the fewest timed children an untraced run makes, whatever
// -seconds says, so every median has more than one sample.
const minTimed = 2

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: diurnal-250k, channel-day or flash-crowd")
	seed := fs.Int64("seed", 1, "workload seed, given to the trace generator and ReplayOptions.Seed")
	seconds := fs.Int("seconds", 25, "how long to keep starting measured processes")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced runs instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seed == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seed <non-zero n> --seconds <n> --trace <0|1>:", err)
		return 2
	}
	hostLine, err := json.Marshal(map[string]any{"host": fingerprint(), "workload": w.name, "seed": *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(hostLine))

	r := &runner{w: w, seed: *seed, start: startWatch()}
	var res *result
	if *trace == 1 {
		res, err = r.traced(float64(*seconds))
	} else {
		res, err = r.endToEnd(float64(*seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := res.marshal()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the run's final line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	units     map[string]string
	problems  []string
}

func (r *result) marshal() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for k, v := range r.Metrics {
		metrics[k] = value{v, r.units[k]}
	}
	// encoding/json writes map keys sorted, so the line is deterministic.
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// check records a failed correctness condition.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runner starts and collects the child processes of one run.
type runner struct {
	w     *workload
	seed  int64
	start stopwatch
	// slowest is the longest child so far, used to decide whether another
	// one still fits the run budget.
	slowest float64
}

// child runs one child process and decodes its result.
func (r *runner) child(mode string) (*childResult, error) {
	left := runBudget.Seconds() - r.start.seconds()
	if left <= 0 {
		return nil, errors.New("run budget exhausted")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(left*float64(time.Second)))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "child",
		"--workload", r.w.name, "--seed", strconv.FormatInt(r.seed, 10), "--mode", mode)
	cmd.Stderr = os.Stderr
	sw := startWatch()
	out, err := cmd.Output()
	if d := sw.seconds(); d > r.slowest {
		r.slowest = d
	}
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child output: %w", mode, err)
	}
	return &res, nil
}

// more reports whether the run should start another measured child:
// until least are done, then while -seconds of measuring has not passed,
// and never past the run budget.
func (r *runner) more(done, least int, measured stopwatch, seconds float64) bool {
	if r.start.seconds()+r.slowest*1.5 > runBudget.Seconds() {
		return false
	}
	return done < least || measured.seconds() < seconds
}

// gate checks the timed reports against the verified replay's and
// against each other.
func gate(res *result, w *workload, verified *childResult, runs []*childResult) {
	first := runs[0]
	res.check(verified.Report == first.Report, "verified replay's report differs from the timed replay's")
	for _, c := range runs[1:] {
		res.check(c.Report == first.Report, "replay report differs between processes at one seed")
		res.check(equalMaps(c.Sim, first.Sim), "simulated metrics differ between processes at one seed")
	}
	res.check(first.Queries > 0, "replay submitted no queries")
	// No workload sheds (FIFO admission) or injects faults, so any
	// failed request is a defect.
	res.check(first.Failed == 0, "%d of %d requests failed", first.Failed, first.Queries)
	if w.name == "channel-day" {
		res.check(first.Sim["core.hybrid.small_values"] > 0 && first.Sim["core.hybrid.bulk_values"] > 0,
			"hybrid endpoint did not split its traffic (small %v, bulk %v)",
			first.Sim["core.hybrid.small_values"], first.Sim["core.hybrid.bulk_values"])
	}
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, units: map[string]string{}}
}

// finish sets Correct from the checks and keeps exactly the metrics defs
// declares, with their units.
func (r *result) finish(defs []metricDef) {
	r.Correct = len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", p)
	}
	keep := make(map[string]string, len(defs))
	for _, m := range defs {
		keep[m.name] = m.unit
	}
	for _, k := range sortedKeys(r.Metrics) {
		if unit, ok := keep[k]; ok {
			r.units[k] = unit
		} else {
			delete(r.Metrics, k)
		}
	}
}

// endToEnd is an untraced run: the gate, then fresh timed processes until
// -seconds have passed.
func (r *runner) endToEnd(seconds float64) (*result, error) {
	verified, err := r.child(modeVerify)
	if err != nil {
		return nil, err
	}
	var runs []*childResult
	measured := startWatch()
	for r.more(len(runs), minTimed, measured, seconds) {
		c, err := r.child(modeTimed)
		if err != nil {
			return nil, err
		}
		runs = append(runs, c)
	}
	if len(runs) == 0 {
		return nil, errors.New("no timed run fitted the run budget")
	}
	return summarizeEndToEnd(r.w, verified, runs), nil
}

// summarizeEndToEnd reports medians of the host metrics over the timed
// processes and the simulated outcome, which every process must agree on.
func summarizeEndToEnd(w *workload, verified *childResult, runs []*childResult) *result {
	res := newResult()
	gate(res, w, verified, runs)
	var setup, qps, heap []float64
	for _, c := range runs {
		setup = append(setup, c.SetupS)
		qps = append(qps, float64(c.Queries)/c.ReplayS)
		heap = append(heap, c.RetainedHeapMB)
		res.Attempted += c.Queries
		res.Failed += c.Failed
	}
	for k, v := range runs[0].Sim {
		res.Metrics[k] = v
	}
	res.Metrics["setup_s"] = median(setup)
	res.Metrics["queries_per_s"] = median(qps)
	res.Metrics["retained_heap_mb"] = median(heap)
	res.finish(endToEnd)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d timed processes, setup_s %v, queries_per_s %v, retained_heap_mb %v\n",
		w.name, len(runs), setup, qps, heap)
	return res
}

// traced is a per-layer run: the gate, then pairs of untraced and traced
// processes until -seconds have passed.
func (r *runner) traced(seconds float64) (*result, error) {
	verified, err := r.child(modeVerify)
	if err != nil {
		return nil, err
	}
	var plain, traced []*childResult
	measured := startWatch()
	for r.more(len(plain), 1, measured, seconds) {
		p, err := r.child(modeTimed)
		if err != nil {
			return nil, err
		}
		t, err := r.child(modeTraced)
		if err != nil {
			return nil, err
		}
		plain, traced = append(plain, p), append(traced, t)
	}
	if len(plain) == 0 {
		return nil, errors.New("no traced run fitted the run budget")
	}
	return summarizeTraced(r.w, verified, plain, traced), nil
}

// summarizeTraced reports the per-layer metrics. CPU seconds per layer
// are the traced processes' mean, so the layers still sum to the mean
// profile total; host timings are medians of the untraced processes.
func summarizeTraced(w *workload, verified *childResult, plain, traced []*childResult) *result {
	res := newResult()
	// Tracing observes the simulation without perturbing it, so the
	// traced replays must report exactly what the untraced ones do.
	gate(res, w, verified, append(append([]*childResult{}, plain...), traced...))
	for _, t := range traced[1:] {
		res.check(equalMaps(t.Stages, traced[0].Stages), "stage self times differ between traced processes")
	}
	for _, l := range cpuLayers {
		sum := 0.0
		for _, t := range traced {
			sum += t.CPU[l]
		}
		res.Metrics[l+".cpu_s"] = sum / float64(len(traced))
	}
	for _, name := range timedCalls {
		var xs []float64
		for _, p := range plain {
			xs = append(xs, p.Timings[name])
		}
		res.Metrics[name] = median(xs)
	}
	res.Metrics["model.reference_s"] = verified.Timings["model.reference_s"]
	for k, v := range plain[0].Sim {
		res.Metrics[k] = v
	}
	for k, v := range traced[0].Stages {
		res.Metrics[k] = v
	}
	var rss, plainS, tracedS []float64
	for i := range plain {
		rss = append(rss, plain[i].PeakRSSMB)
		plainS = append(plainS, plain[i].ReplayS)
		tracedS = append(tracedS, traced[i].ReplayS)
		res.Attempted += plain[i].Queries + traced[i].Queries
		res.Failed += plain[i].Failed + traced[i].Failed
	}
	res.Metrics["runtime.peak_rss_mb"] = median(rss)
	res.Metrics["trace.overhead_frac"] = median(tracedS)/median(plainS) - 1
	res.finish(perLayer())
	return res
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func equalMaps(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// childMain is the entry point of a child process: it runs one mode and
// writes its result as JSON to standard output.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	mode := fs.String("mode", modeTimed, "timed, traced or verify")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	res, err := runChild(w, *seed, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}
