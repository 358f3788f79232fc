package serve

import (
	"fmt"
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

// routedQuery pairs one trace query with its resolved endpoint.
type routedQuery struct {
	q    workload.Query
	name string
}

// router returns opts.Route, or the default route by model size: the
// first endpoint registered for the query's neuron count.
func (s *Service) router(opts ReplayOptions) func(workload.Query) (string, bool) {
	if opts.Route != nil {
		return opts.Route
	}
	return func(q workload.Query) (string, bool) {
		eps := s.byNeuronsAll[q.Neurons]
		if len(eps) == 0 {
			return "", false
		}
		return eps[0].name, true
	}
}

// routeQuery resolves query i's endpoint name and checks it is registered.
func (s *Service) routeQuery(route func(workload.Query) (string, bool), i int, q workload.Query) (string, error) {
	name, ok := route(q)
	if !ok {
		return "", fmt.Errorf("serve: no endpoint for query %d (N=%d)", i, q.Neurons)
	}
	if s.byName[name] == nil {
		return "", fmt.Errorf("serve: route returned unknown endpoint %q", name)
	}
	return name, nil
}

// Replay drives a workload query trace through the service inside one
// simulated-time run and measures what the paper's Fig. 4 comparison
// otherwise extrapolates: real per-query latency under coalescing and
// cold starts, and real metered daily cost. Queries are admitted at their
// trace arrival times (relative to the current virtual time), inputs are
// generated deterministically per query, and the report aggregates the
// resolved handles plus the endpoints' run ledgers. Latency percentiles
// are exact, recomputed from every retained sample.
//
// The whole trace is routed before anything is submitted, so a rejected
// trace leaves nothing pending. Routing runs after the in-flight drain
// and window snapshot, so routing-time side effects land inside the
// measured window.
func (s *Service) Replay(trace []workload.Query, opts ReplayOptions) (*Report, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	opts = opts.withDefaults()
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
	route := s.router(opts)
	items := make([]routedQuery, len(trace))
	for i, q := range trace {
		name, err := s.routeQuery(route, i, q)
		if err != nil {
			return nil, err
		}
		items[i] = routedQuery{q: q, name: name}
	}

	handles := make([]*Handle, len(items))
	eps := make([]*Endpoint, len(items))
	inputs := make([]*sparse.Dense, len(items))
	for i, it := range items {
		eps[i] = s.byName[it.name]
		inputs[i] = model.GenerateInputs(it.q.Neurons, it.q.Samples, opts.Density, opts.Seed+int64(i))
		var so SubmitOptions
		if opts.Submit != nil {
			so = opts.Submit(i, it.q)
		}
		// The query's trace index — not the service-local submit
		// counter — is the sampling key, so every replay mode samples
		// the same requests.
		handles[i] = s.submit(it.name, inputs[i], base+it.q.At, so, nil, i)
	}

	chaos := s.scheduleChaos(base, opts.Chaos)

	if err := s.Run(); err != nil {
		return nil, err
	}
	s.closeWindow(win)

	f := newReplayFold(base, true)
	for i, h := range handles {
		if !h.done {
			return nil, fmt.Errorf("serve: query %d did not resolve", i)
		}
		f.add(eps[i], h)
		if opts.Verify && h.err == nil {
			want := model.Reference(eps[i].m, inputs[i])
			if !model.OutputsClose(h.resp.Output, want, 1e-2) {
				return nil, fmt.Errorf("serve: query %d output diverges from reference", i)
			}
		}
	}
	return s.replayReport(f, win, chaos), nil
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
