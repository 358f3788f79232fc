package serve

import (
	"fmt"
	"sort"
	"time"

	"fsdinference/internal/cloud/kvcluster"
	"fsdinference/internal/model"
	"fsdinference/internal/sparse"
	"fsdinference/internal/workload"
)

// ChaosKind selects a fault-injection action embedded in a replay trace.
type ChaosKind int

const (
	// KillNode fails the target shard's primary at the event time: with
	// replicas the shard fails over, without them in-flight values are
	// lost and the channel's sender-log recovery pays the bill.
	KillNode ChaosKind = iota
	// Partition makes the target shard unreachable for the event's
	// Duration without killing it; clients block and retry.
	Partition
)

func (k ChaosKind) String() string {
	if k == Partition {
		return "partition"
	}
	return "kill-node"
}

// ChaosEvent is one trace-embedded fault: at a trace-relative virtual
// time, hit an endpoint's provisioned store cluster. Events against
// endpoints that have no live cluster at fire time (per-request channels,
// or every replica torn down) are counted as skipped, not failures — a
// chaos trace must stay replayable across configuration changes.
type ChaosEvent struct {
	// At is the injection time, relative to the replay start (same clock
	// as the trace's Query.At).
	At time.Duration
	// Kind selects the fault.
	Kind ChaosKind
	// Endpoint names the target; empty targets the first endpoint that
	// has a provisioned store cluster when the event fires.
	Endpoint string
	// Shard is the target shard index within the cluster.
	Shard int
	// Duration is the partition length (Partition only; default 1s).
	Duration time.Duration
}

// ReplayOptions tunes a trace replay.
type ReplayOptions struct {
	// Density is the generated inputs' nonzero fraction (default 0.2,
	// the evaluation setting).
	Density float64
	// Seed drives deterministic per-query input generation (default 1).
	Seed int64
	// Route maps a query to an endpoint name. The default routes by
	// model size: the first endpoint whose model has the query's neuron
	// count.
	Route func(q workload.Query) (string, bool)
	// Submit supplies per-query scheduling metadata (priority, deadline)
	// for the admission policy; nil submits every query with defaults.
	Submit func(i int, q workload.Query) SubmitOptions
	// Verify checks every request's output against serial float64
	// reference inference; a mismatch fails the replay. Not supported by
	// ReplayStream, which releases outputs as queries resolve.
	Verify bool
	// Chaos embeds fault-injection events in the trace's timeline; the
	// report counts the injections and the failover fallout.
	Chaos []ChaosEvent
}

func (opts ReplayOptions) withDefaults() ReplayOptions {
	if opts.Density == 0 {
		opts.Density = 0.2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return opts
}

// routedQuery pairs one trace query with its resolved endpoint and its
// index in the original trace. The index — not the position in whatever
// sub-slice a lane replays — seeds the query's input generation and is
// echoed to the Submit callback, so a lane's share of a trace replays
// exactly as it would inside the full single-lane replay.
type routedQuery struct {
	idx  int
	q    workload.Query
	name string
}

// routeTrace resolves every query's endpoint up front (default: route by
// model size) against this service's registry.
func (s *Service) routeTrace(trace []workload.Query, opts ReplayOptions) ([]routedQuery, error) {
	route := opts.Route
	if route == nil {
		route = func(q workload.Query) (string, bool) {
			eps := s.byNeuronsAll[q.Neurons]
			if len(eps) == 0 {
				return "", false
			}
			return eps[0].name, true
		}
	}
	items := make([]routedQuery, len(trace))
	for i, q := range trace {
		name, ok := route(q)
		if !ok {
			return nil, fmt.Errorf("serve: no endpoint for query %d (N=%d)", i, q.Neurons)
		}
		if s.byName[name] == nil {
			return nil, fmt.Errorf("serve: route returned unknown endpoint %q", name)
		}
		items[i] = routedQuery{idx: i, q: q, name: name}
	}
	return items, nil
}

// Replay drives a workload query trace through the service inside one
// simulated-time run and measures what the paper's Fig. 4 comparison
// otherwise extrapolates: real per-query latency under coalescing and
// cold starts, and real metered daily cost. Queries are admitted at their
// trace arrival times (relative to the current virtual time), inputs are
// generated deterministically per query, and the report aggregates the
// resolved handles plus the endpoints' run ledgers.
func (s *Service) Replay(trace []workload.Query, opts ReplayOptions) (*Report, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	opts = opts.withDefaults()
	rep, _, err := s.replayRouted(func() ([]routedQuery, error) {
		return s.routeTrace(trace, opts)
	}, opts)
	return rep, err
}

// replayRouted replays routed queries and, alongside the report, returns
// the raw per-request latencies so a lane merge can recompute the exact
// cross-lane distribution instead of approximating from summaries. The
// route callback runs after the in-flight drain and window snapshot, so
// routing-time side effects (tests arm chaos there) land inside the
// measured window, exactly as they always have.
func (s *Service) replayRouted(route func() ([]routedQuery, error), opts ReplayOptions) (*Report, []time.Duration, error) {
	run, err := s.replayStart(route, opts)
	if err != nil {
		return nil, nil, err
	}
	return s.replayFinish(run, opts, 0)
}

// replayRun is an in-flight replay between its drive phase (replayStart:
// everything submitted and drained) and its reporting phase
// (replayFinish). Replay lanes hold this between phases so every lane's
// metering window can be closed at the same global end time.
type replayRun struct {
	win     *replayWindow
	items   []routedQuery
	handles []*Handle
	eps     []*Endpoint
	inputs  []*sparse.Dense
	chaos   *chaosCounters
}

// replayStart drains in-flight work, opens the metering window, submits
// the routed trace and drives the kernel until everything resolves.
func (s *Service) replayStart(route func() ([]routedQuery, error), opts ReplayOptions) (*replayRun, error) {
	if err := s.checkChaos(opts.Chaos); err != nil {
		return nil, err
	}
	// Drain any requests already in flight first, so the metered window
	// below measures this trace and nothing else.
	if err := s.Run(); err != nil {
		return nil, err
	}

	base := s.Now()
	win := s.openWindow(base)
	items, err := route()
	if err != nil {
		return nil, err
	}

	run := &replayRun{
		win:     win,
		items:   items,
		handles: make([]*Handle, len(items)),
		eps:     make([]*Endpoint, len(items)),
		inputs:  make([]*sparse.Dense, len(items)),
	}
	for i, it := range items {
		run.eps[i] = s.byName[it.name]
		run.inputs[i] = model.GenerateInputs(it.q.Neurons, it.q.Samples, opts.Density, opts.Seed+int64(it.idx))
		var so SubmitOptions
		if opts.Submit != nil {
			so = opts.Submit(it.idx, it.q)
		}
		// The query's trace index — not the service-local submit
		// counter — is the sampling key, so lanes replaying disjoint
		// sub-traces sample the same requests as a shared-kernel replay.
		run.handles[i] = s.submit(it.name, run.inputs[i], base+it.q.At, so, nil, it.idx)
	}

	run.chaos = s.scheduleChaos(base, opts.Chaos)

	if err := s.Run(); err != nil {
		return nil, err
	}
	return run, nil
}

// replayFinish closes the metering window and aggregates the report. A
// positive endAt first advances the kernel to that virtual time (with an
// empty event), so a lane that finished early accrues provisioned
// capacity to the same global end a shared-kernel run would have — idle
// tails included.
func (s *Service) replayFinish(run *replayRun, opts ReplayOptions, endAt time.Duration) (*Report, []time.Duration, error) {
	if endAt > s.Now() {
		if s.mon != nil {
			// Arm catch-up scrapes as kernel events up to the global end,
			// so a lane that drained early finalizes the same windows at
			// the same simulated instants as the single-kernel replay.
			s.mon.RunTo(endAt)
		}
		s.env.K.At(endAt-s.Now(), func() {})
		if err := s.Run(); err != nil {
			return nil, nil, err
		}
	}
	s.closeWindow(run.win)
	win, items, handles, eps, inputs := run.win, run.items, run.handles, run.eps, run.inputs

	rep := &Report{}
	var all []time.Duration
	perEp := make(map[*Endpoint][]time.Duration, len(s.eps))
	perPrio := make(map[*Endpoint]map[int][]time.Duration, len(s.eps))
	epQueries := make(map[*Endpoint]int, len(s.eps))
	epFailed := make(map[*Endpoint]int, len(s.eps))
	epSamples := make(map[*Endpoint]int, len(s.eps))
	for i, h := range handles {
		ep := eps[i]
		epQueries[ep]++
		rep.Queries++
		if !h.done {
			return nil, nil, fmt.Errorf("serve: query %d did not resolve", items[i].idx)
		}
		if h.err != nil {
			rep.Failed++
			epFailed[ep]++
			continue
		}
		resp := h.resp
		rep.Samples += resp.Output.Cols
		epSamples[ep] += resp.Output.Cols
		all = append(all, resp.Latency)
		perEp[ep] = append(perEp[ep], resp.Latency)
		if perPrio[ep] == nil {
			perPrio[ep] = make(map[int][]time.Duration)
		}
		perPrio[ep][h.priority] = append(perPrio[ep][h.priority], resp.Latency)
		if h.finished-win.base > rep.Horizon {
			rep.Horizon = h.finished - win.base
		}
		if opts.Verify {
			want := model.Reference(ep.m, inputs[i])
			if !model.OutputsClose(resp.Output, want, 1e-2) {
				return nil, nil, fmt.Errorf("serve: query %d output diverges from reference", items[i].idx)
			}
		}
	}
	rep.Latency = latencyStats(all)
	for _, ep := range s.eps {
		rep.Endpoints = append(rep.Endpoints, s.endpointReport(ep, win,
			epQueries[ep], epFailed[ep], epSamples[ep],
			latencyStats(perEp[ep]), prioLatencies(perPrio[ep])))
	}
	s.meterReport(rep, win)
	rep.ChaosKills = run.chaos.kills
	rep.ChaosPartitions = run.chaos.partitions
	rep.ChaosSkipped = run.chaos.skipped
	return rep, all, nil
}

// chaosCounters tallies trace-embedded fault injections.
type chaosCounters struct {
	kills, partitions, skipped int
}

// checkChaos rejects a chaos schedule that names an unknown endpoint. A
// replay calls it before it submits anything, so a rejected replay leaves
// no query pending.
func (s *Service) checkChaos(events []ChaosEvent) error {
	for i, ev := range events {
		if ev.Endpoint != "" && s.byName[ev.Endpoint] == nil {
			return fmt.Errorf("serve: chaos event %d targets unknown endpoint %q", i, ev.Endpoint)
		}
	}
	return nil
}

// scheduleChaos arms checked chaos events on the kernel timeline relative
// to base and returns the counters they will populate as they fire.
func (s *Service) scheduleChaos(base time.Duration, events []ChaosEvent) *chaosCounters {
	c := &chaosCounters{}
	for _, ev := range events {
		ev := ev
		s.env.K.At(base+ev.At, func() {
			cl := s.chaosTarget(ev.Endpoint)
			if cl == nil || ev.Shard < 0 || ev.Shard >= cl.Shards() {
				c.skipped++
				return
			}
			switch ev.Kind {
			case Partition:
				d := ev.Duration
				if d <= 0 {
					d = time.Second
				}
				if cl.Partition(ev.Shard, d) == nil {
					c.partitions++
				} else {
					c.skipped++
				}
			default:
				if cl.KillNode(ev.Shard) == nil {
					c.kills++
				} else {
					c.skipped++
				}
			}
		})
	}
	return c
}

// chaosTarget resolves a chaos event's target cluster at fire time: the
// named endpoint's first replica with a provisioned store, or — with no
// name — the first such replica service-wide.
func (s *Service) chaosTarget(name string) *kvcluster.Cluster {
	eps := s.eps
	if name != "" {
		ep := s.byName[name]
		if ep == nil {
			return nil
		}
		eps = []*Endpoint{ep}
	}
	for _, ep := range eps {
		for _, rep := range ep.sched.pool {
			if cl := rep.d.KVCluster(); cl != nil {
				return cl
			}
		}
	}
	return nil
}

// prioLatencies collapses a per-priority latency map into the report's
// ordered breakdown (highest priority first); nil unless more than one
// class was submitted.
func prioLatencies(groups map[int][]time.Duration) []PriorityLatency {
	if len(groups) <= 1 {
		return nil
	}
	prios := make([]int, 0, len(groups))
	for p := range groups {
		prios = append(prios, p)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(prios)))
	out := make([]PriorityLatency, 0, len(prios))
	for _, p := range prios {
		out = append(out, PriorityLatency{Priority: p, Latency: latencyStats(groups[p])})
	}
	return out
}
