package serve

import (
	"sort"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/obs"
)

// replayWindow captures the metering state at a replay's start so the
// report charges exactly the replay's own window: the meter snapshot and
// platform start counters to subtract, the registry's counter values as
// the baseline of every endpoint count, and per-endpoint stat snapshots
// with the high-water marks restarted.
type replayWindow struct {
	base         time.Duration
	meterSnap    usage.Meter
	cold0, warm0 int
	counts       map[*obs.Counter]int64
	statSnaps    []endpointStats
}

// count is c's count over the window.
func (win *replayWindow) count(c *obs.Counter) int {
	return int(c.Value() - win.counts[c])
}

// openWindow closes the provisioned-capacity accruals at the window edge
// and snapshots every counter the report will subtract, so the report
// measures this replay and nothing else.
func (s *Service) openWindow(base time.Duration) *replayWindow {
	// Close the provisioned-capacity accrual at the window edge, so the
	// subtraction below charges exactly this replay's node-hours
	// (including the hours its memory stores sit idle between queries).
	s.env.KV.Settle()
	win := &replayWindow{
		base:      base,
		meterSnap: s.env.Meter.Snapshot(),
		cold0:     s.env.FaaS.ColdStarts,
		warm0:     s.env.FaaS.WarmStarts,
		counts:    s.metrics.CounterValues(),
		statSnaps: make([]endpointStats, len(s.eps)),
	}
	for i, ep := range s.eps {
		// Close the replica-seconds accrual at the window edge so the
		// subtraction below charges exactly this replay's pool time, and
		// restart the workload observation window so the reported
		// Observed profile describes this trace only.
		ep.sched.accrue(base)
		ep.sched.resetObservationWindow()
		win.statSnaps[i] = ep.stats
		// The high-water fields are marks, not counters: restart them so
		// the report describes this replay's window.
		ep.stats.MaxSamples = 0
		ep.stats.MaxConcurrent = 0
		ep.stats.PeakReplicas = len(ep.sched.pool)
	}
	if s.mon != nil {
		// Restart the scrape series at the window edge and arm the first
		// scrape event, so monitor windows are trace-relative like the
		// report.
		s.mon.Start(base)
	}
	return win
}

// closeWindow settles the accruals at the window's far edge.
func (s *Service) closeWindow(win *replayWindow) {
	end := s.Now()
	for _, ep := range s.eps {
		ep.sched.accrue(end)
	}
	s.env.KV.Settle()
	if s.mon != nil {
		// Safety net: in the replay flows every closed window was already
		// finalized by scrape events, so this is normally a no-op.
		s.mon.Flush(end)
	}
}

// replayFold accumulates a replay's request-level aggregates as handles
// resolve: query, failure and sample counts, the horizon, and latency
// populations overall, per endpoint and per priority class. Replay folds
// its retained handles after the kernel drains; ReplayStream folds each
// handle from its resolve callback.
type replayFold struct {
	base  time.Duration
	exact bool
	rep   *Report
	all   latencies
	perEp map[*Endpoint]*epFold
}

// epFold is one endpoint's share of a replayFold.
type epFold struct {
	queries, failed, samples int
	lat                      latencies
	perPrio                  map[int]*latencies
}

// newReplayFold starts a fold for a replay window opened at base; exact
// keeps every latency sample, otherwise latencies fold into histograms.
func newReplayFold(base time.Duration, exact bool) *replayFold {
	f := &replayFold{base: base, exact: exact, rep: &Report{}, perEp: make(map[*Endpoint]*epFold)}
	f.all = f.newLatencies()
	return f
}

func (f *replayFold) newLatencies() latencies {
	if f.exact {
		return latencies{}
	}
	return latencies{hist: &latencyHist{}}
}

// add folds one resolved request submitted to ep.
func (f *replayFold) add(ep *Endpoint, h *Handle) {
	e := f.perEp[ep]
	if e == nil {
		e = &epFold{lat: f.newLatencies(), perPrio: make(map[int]*latencies)}
		f.perEp[ep] = e
	}
	f.rep.Queries++
	e.queries++
	if h.err != nil {
		f.rep.Failed++
		e.failed++
		return
	}
	d, cols := h.resp.Latency, h.resp.Output.Cols
	f.rep.Samples += cols
	e.samples += cols
	f.all.observe(d)
	e.lat.observe(d)
	p := e.perPrio[h.priority]
	if p == nil {
		l := f.newLatencies()
		p = &l
		e.perPrio[h.priority] = p
	}
	p.observe(d)
	if h.finished-f.base > f.rep.Horizon {
		f.rep.Horizon = h.finished - f.base
	}
}

// prioStats renders the per-priority breakdown, highest priority first;
// nil unless more than one class was served.
func (e *epFold) prioStats() []PriorityLatency {
	if len(e.perPrio) <= 1 {
		return nil
	}
	prios := make([]int, 0, len(e.perPrio))
	for p := range e.perPrio {
		prios = append(prios, p)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(prios)))
	out := make([]PriorityLatency, 0, len(prios))
	for _, p := range prios {
		out = append(out, PriorityLatency{Priority: p, Latency: e.perPrio[p].stats()})
	}
	return out
}

// replayReport assembles a closed window's report from the fold, the
// endpoints' stat deltas, the metering delta and the chaos tallies.
func (s *Service) replayReport(f *replayFold, win *replayWindow, chaos *chaosCounters) *Report {
	rep := f.rep
	rep.Latency = f.all.stats()
	for _, ep := range s.eps {
		acc := f.perEp[ep]
		if acc == nil {
			acc = &epFold{}
		}
		rep.Endpoints = append(rep.Endpoints, s.endpointReport(ep, win, acc))
	}
	s.meterReport(rep, win)
	rep.ChaosKills = chaos.kills
	rep.ChaosPartitions = chaos.partitions
	rep.ChaosSkipped = chaos.skipped
	return rep
}

// endpointReport assembles one endpoint's report over the window from its
// stat delta and the request-level aggregates the fold accumulated.
func (s *Service) endpointReport(ep *Endpoint, win *replayWindow, acc *epFold) EndpointReport {
	var snap endpointStats
	for i, e := range s.eps {
		if e == ep {
			snap = win.statSnaps[i]
			break
		}
	}
	st := ep.stats.sub(snap)
	// Re-plan events are reported trace-relative, like Horizon.
	replans := make([]ReplanEvent, len(st.Replans))
	for j, ev := range st.Replans {
		ev.At -= win.base
		replans[j] = ev
	}
	m := ep.met
	runs := 0
	for _, c := range m.runsByChannel {
		runs += win.count(c)
	}
	runSamples := win.count(m.runSamples)
	batch := 0
	if runs > 0 {
		batch = runSamples / runs
	}
	er := EndpointReport{
		Name:              ep.name,
		Neurons:           ep.m.Spec.Neurons,
		Channel:           ep.cfg.Channel,
		Workers:           ep.cfg.Workers(),
		Replicas:          len(ep.sched.pool),
		PeakReplicas:      st.PeakReplicas,
		Admission:         ep.sched.admission.Name(),
		Scaling:           ep.sched.scaling.Name(),
		ReplicaSeconds:    st.ReplicaSeconds,
		ScaleUps:          win.count(m.scaleUps),
		ScaleDowns:        win.count(m.scaleDowns),
		Shed:              win.count(m.shed),
		Rerouted:          win.count(m.rerouted),
		DeadlineMissed:    win.count(m.deadlineMissed),
		Reselections:      win.count(m.reselections),
		Replans:           replans,
		Observed:          ep.sched.observedProfile(batch),
		MaxConcurrentRuns: st.MaxConcurrent,
		Queries:           acc.queries,
		Failed:            acc.failed,
		Samples:           acc.samples,
		Runs:              runs,
		FailedRuns:        win.count(m.failedRuns),
		MaxRunSamples:     st.MaxSamples,
		ColdStarts:        win.count(m.coldStarts),
		WarmStarts:        win.count(m.warmStarts),
		Latency:           acc.lat.stats(),
		Cost:              st.Cost,
		PerPriority:       acc.prioStats(),
	}
	if runs > 0 {
		er.AvgRunSamples = float64(runSamples) / float64(runs)
		er.AvgRunRequests = float64(win.count(m.runRequests)) / float64(runs)
	}
	return er
}

// meterReport fills the report's environment-wide metering fields from the
// window delta.
func (s *Service) meterReport(rep *Report, win *replayWindow) {
	used := s.env.Meter.Sub(win.meterSnap)
	rep.TotalCost = used.Cost(s.env.Pricing)
	rep.KVGBHours = used.KVGBHours
	rep.KVOps = used.KVOps
	usage.FoldSorted(used.KVReplicaHours, func(_ string, h float64) {
		rep.KVReplicaHours += h
	})
	for shard, h := range used.KVShardHours {
		if h <= 0 {
			continue
		}
		if rep.KVShardHours == nil {
			rep.KVShardHours = make(map[string]float64)
		}
		rep.KVShardHours[shard] = h
	}
	rep.KVShardCost = used.KVShardCost(s.env.Pricing)
	rep.KVFailovers = used.KVFailovers
	rep.KVLostValues = used.KVLostValues
	rep.KVResends = used.KVResends
	rep.KVMoved = used.KVMoved
	rep.ColdStarts = s.env.FaaS.ColdStarts - win.cold0
	rep.WarmStarts = s.env.FaaS.WarmStarts - win.warm0
	if len(used.Collectives) > 0 {
		rep.Collectives = used.Collectives
	}
	rep.HybridSmallValues = used.HybridSmallValues
	rep.HybridBulkValues = used.HybridBulkValues
	rep.HybridBulkBytes = used.HybridBulkBytes
	rep.HybridChunks = used.HybridChunks
}
