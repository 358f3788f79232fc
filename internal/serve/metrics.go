package serve

import (
	"fsdinference/internal/core"
	"fsdinference/internal/obs"
	"fsdinference/internal/obs/monitor"
)

// epMetrics caches one endpoint's registry instruments at build time so
// hot-path updates are pointer increments, never registry map lookups.
// The counters are the endpoint's only counts: a replay report reads each
// as its delta over the replay window (replayWindow.count).
type epMetrics struct {
	reg  *obs.Registry
	name string

	requests       *obs.Counter // resolved requests, completed + failed + shed
	failures       *obs.Counter // requests resolved with an error (incl. shed)
	shed           *obs.Counter
	rerouted       *obs.Counter // requests handed to a least-loaded sibling
	deadlineMissed *obs.Counter // completed requests that finished past their deadline
	coldStarts     *obs.Counter
	warmStarts     *obs.Counter
	failedRuns     *obs.Counter
	runSamples     *obs.Counter // samples over completed runs
	runRequests    *obs.Counter // requests over completed runs
	scaleUps       *obs.Counter
	scaleDowns     *obs.Counter
	reselections   *obs.Counter // SLO planner re-runs, configuration changed or not
	kvFailovers    *obs.Counter // shard failovers of this endpoint's KV clusters
	kvLostValues   *obs.Counter
	queueDepth     *obs.Gauge
	poolSize       *obs.Gauge // live replica-pool size
	latency        *obs.Histogram

	// runsByChannel labels completed-run counts with the channel the run
	// actually executed on — an SLO re-plan can change it mid-replay,
	// hence the lazy per-kind resolution.
	runsByChannel map[core.ChannelKind]*obs.Counter
}

func newEpMetrics(reg *obs.Registry, name string) *epMetrics {
	c := func(series string) *obs.Counter { return reg.Counter(series, "endpoint", name) }
	return &epMetrics{
		reg:            reg,
		name:           name,
		requests:       c("requests_total"),
		failures:       c("request_failures_total"),
		shed:           c("requests_shed_total"),
		rerouted:       c("requests_rerouted_total"),
		deadlineMissed: c("deadline_misses_total"),
		coldStarts:     c("cold_starts_total"),
		warmStarts:     c("warm_starts_total"),
		failedRuns:     c("run_failures_total"),
		runSamples:     c("run_samples_total"),
		runRequests:    c("run_requests_total"),
		scaleUps:       c("scale_ups_total"),
		scaleDowns:     c("scale_downs_total"),
		reselections:   c("reselections_total"),
		kvFailovers:    c("kv_failovers_total"),
		kvLostValues:   c("kv_lost_values_total"),
		queueDepth:     reg.Gauge("queue_depth", "endpoint", name),
		poolSize:       reg.Gauge("replica_pool_size", "endpoint", name),
		latency:        reg.Histogram("request_latency_ns", "endpoint", name),
		runsByChannel:  make(map[core.ChannelKind]*obs.Counter),
	}
}

// target wires the endpoint's instruments into the SLO monitor.
func (m *epMetrics) target() monitor.Target {
	return monitor.Target{
		Endpoint:     m.name,
		Requests:     m.requests,
		Failures:     m.failures,
		Shed:         m.shed,
		Rerouted:     m.rerouted,
		ColdStarts:   m.coldStarts,
		WarmStarts:   m.warmStarts,
		KVFailovers:  m.kvFailovers,
		KVLostValues: m.kvLostValues,
		Latency:      m.latency,
		QueueDepth:   m.queueDepth,
		Replicas:     m.poolSize,
	}
}

func (m *epMetrics) runFor(ch core.ChannelKind) *obs.Counter {
	c := m.runsByChannel[ch]
	if c == nil {
		c = m.reg.Counter("runs_total", "endpoint", m.name, "channel", ch.String())
		m.runsByChannel[ch] = c
	}
	return c
}
