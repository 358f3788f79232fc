package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// Child modes: each runs in a fresh process started by the parent, so
// every timed replay is the first one in its process and no number
// depends on state an earlier replay left behind.
const (
	modeTimed  = "timed"  // untraced set-up and replay: the end-to-end run
	modeTraced = "traced" // the same with WithTracing and a CPU profile
	modeVerify = "verify" // the correctness gate
)

// childResult is what one child process reports to the parent, as one
// JSON object on its standard output.
type childResult struct {
	SetupS  float64 `json:"setup_s"`
	ReplayS float64 `json:"replay_s"`
	Queries int     `json:"queries"`
	Failed  int     `json:"failed"`
	// Report is the replay's Report.String(); the parent requires it to
	// be byte-identical across every child of a run.
	Report         string             `json:"report"`
	RetainedHeapMB float64            `json:"retained_heap_mb"`
	PeakRSSMB      float64            `json:"peak_rss_mb"`
	Sim            map[string]float64 `json:"sim,omitempty"`
	Timings        map[string]float64 `json:"timings,omitempty"`
	CPU            map[string]float64 `json:"cpu,omitempty"`
	CPUTotalS      float64            `json:"cpu_total_s,omitempty"`
	Stages         map[string]float64 `json:"stages,omitempty"`
}

// runChild executes one child mode for a workload and seed.
func runChild(w *workload, seed int64, mode string) (*childResult, error) {
	res := &childResult{}
	tm := timings{}
	if mode == modeVerify {
		report, err := w.verify(seed, tm)
		if err != nil {
			return nil, fmt.Errorf("%s: correctness gate: %w", w.name, err)
		}
		res.Report = report
		res.Timings = tm
		return res, nil
	}

	if mode != modeTimed && mode != modeTraced {
		return nil, fmt.Errorf("unknown child mode %q", mode)
	}
	traced := mode == modeTraced
	sw := startWatch()
	svc, err := w.setup(traced, tm)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	res.SetupS = sw.seconds()

	qs := w.generate(seed, tm)
	opts := w.replayOptions(seed, false)
	meter0 := svc.Env().Meter.Snapshot()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	sw = startWatch()
	rep, err := svc.Replay(qs, opts)
	res.ReplayS = sw.seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.name, err)
	}

	mon := svc.Monitor()
	violation := mon.TimeInViolation("slo", flashSLO).Seconds()
	res.Sim = simMetrics(rep, svc.Env().Meter.Sub(meter0), len(mon.Alerts()), violation)
	res.Queries, res.Failed, res.Report = rep.Queries, rep.Failed, rep.String()
	res.Timings = tm
	if traced {
		res.Stages = stageMetrics(svc.Tracer().Spans())
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.CPU, res.CPUTotalS = p.attribute()
	}

	// Retained heap: what stays live once the replay's Service, Report and
	// trace are dropped — the process-global state the replay left behind.
	// The references are cleared explicitly so the measure holds in
	// builds that keep dead variables live (-gcflags=-N).
	svc, rep, mon, qs = nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.RetainedHeapMB = float64(mem.HeapAlloc) / (1 << 20)
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
