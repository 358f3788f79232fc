// Package monitor turns the metrics registry's point-in-time instruments
// into a continuously observed control signal: a simulated-time scrape
// loop samples each endpoint's counters, gauges and latency histogram on
// a fixed virtual-clock interval into ring-buffered time-series,
// evaluates SLO error budgets with Google-SRE-style multi-window
// burn-rate rules over those windows, derives per-endpoint health
// states, and feeds firing alerts to subscribed sinks so the serving
// layer can re-plan before a break-even crossing would have noticed.
//
// Determinism invariant: every scrape is a kernel event. The monitor
// never reads wall clocks and never samples from a goroutine — it
// schedules its next scrape on the owning service's simulated kernel,
// aligned to base + k·Interval boundaries, and each window is finalized
// exactly once, in window order, from the instruments' state at that
// simulated instant, and the exporters order series and alerts
// canonically. Whole-trace and streamed replays therefore export
// byte-identical time-series CSVs and alert logs (tested in
// internal/serve).
//
// The scrape chain re-arms itself only while the service has unresolved
// requests, so a drained kernel terminates.
package monitor

import (
	"fmt"
	"sort"
	"time"

	"fsdinference/internal/obs"
)

// Target wires one endpoint's registry instruments into the monitor.
// The monitor only ever reads them — scrapes cost the serving hot path
// nothing. All instruments are the nil-safe obs types, so a partially
// filled target is valid (missing instruments read as zero).
type Target struct {
	Endpoint string

	Requests   *obs.Counter // resolved requests (completed + failed + shed)
	Failures   *obs.Counter // failed requests, shed included
	Shed       *obs.Counter
	Rerouted   *obs.Counter
	ColdStarts *obs.Counter
	WarmStarts *obs.Counter

	KVFailovers  *obs.Counter
	KVLostValues *obs.Counter

	Latency *obs.Histogram // cumulative request latency

	QueueDepth *obs.Gauge
	Replicas   *obs.Gauge
}

// Health is a per-endpoint, per-window state derived from the firing
// alerts and KV failover activity of that window.
type Health int

const (
	Healthy Health = iota
	Degraded
	Unhealthy
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Unhealthy:
		return "unhealthy"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// Sample is one finalized scrape window of one endpoint. Counter fields
// are deltas over the window; gauges are the value at the window's
// closing boundary; percentiles come from the latency histogram's
// windowed bucket delta. Times are relative to the replay start.
type Sample struct {
	Window     int
	Start, End time.Duration

	Requests, Failures, Shed, Rerouted int64
	ColdStarts, WarmStarts             int64
	KVFailovers, KVLostValues          int64

	QueueDepth float64
	Replicas   float64

	LatencyCount  int64
	P50, P95, P99 time.Duration

	Health Health
}

// RPS is the window's completed-request rate in queries per second.
func (s Sample) RPS() float64 {
	if s.End <= s.Start {
		return 0
	}
	return float64(s.Requests) / (s.End - s.Start).Seconds()
}

// counters holds one target's cumulative counter values at a window
// boundary; the next window's deltas subtract them.
type counters struct {
	requests, failures, shed, rerouted int64
	cold, warm                         int64
	kvFail, kvLost                     int64
}

// snapshot pairs the boundary counters with the latency histogram as of
// the same boundary. The histogram dominates the struct's size, so the
// scrape path copies it only when it actually changed.
type snapshot struct {
	counters
	lat obs.Histogram
}

// sloSeries tracks one SLO's good/bad splits for one target as
// cumulative totals per finalized window (ring-buffered alongside the
// samples), so a burn rate over any lookback is two subtractions.
type sloSeries struct {
	slo     SLO
	cumGood []int64
	cumBad  []int64
	firing  []bool // per burn rule
}

type target struct {
	Target
	ring []Sample
	n    int // windows finalized so far; ring[w%cap] holds window w
	snap snapshot
	slos []*sloSeries
}

func (t *target) reset() {
	t.n = 0
	t.snap = t.scrape()
	for _, ss := range t.slos {
		for i := range ss.firing {
			ss.firing[i] = false
		}
	}
}

func (t *target) scrape() snapshot {
	s := snapshot{counters: t.scrapeCounters()}
	if t.Latency != nil {
		s.lat = *t.Latency
	}
	return s
}

func (t *target) scrapeCounters() counters {
	return counters{
		requests: t.Requests.Value(),
		failures: t.Failures.Value(),
		shed:     t.Shed.Value(),
		rerouted: t.Rerouted.Value(),
		cold:     t.ColdStarts.Value(),
		warm:     t.WarmStarts.Value(),
		kvFail:   t.KVFailovers.Value(),
		kvLost:   t.KVLostValues.Value(),
	}
}

// Monitor owns the scrape loop and the per-endpoint series. Build one
// with New, Register the targets, then Start it at the replay base; the
// serving layer does all three in WithMonitor.
type Monitor struct {
	spec     Spec
	capacity int

	clock    func() time.Duration
	schedule func(delay time.Duration, fn func())
	pending  func() bool

	targets []*target
	byName  map[string]*target

	base    time.Duration
	started bool
	armed   bool

	alerts []AlertEvent
	sinks  []func(AlertEvent)
}

// New validates the spec and builds an idle monitor. clock and schedule
// bind it to a simulated kernel (the owning service's); pending reports
// whether the service still has unresolved requests, which is what keeps
// the scrape chain alive.
func New(spec Spec, clock func() time.Duration, schedule func(delay time.Duration, fn func()), pending func() bool) (*Monitor, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if clock == nil || schedule == nil {
		return nil, fmt.Errorf("monitor: New requires a clock and a scheduler")
	}
	// The ring must retain every window a burn-rate lookback can reach
	// back to, or rule evaluation would read overwritten slots.
	capacity := spec.Capacity
	for _, r := range spec.Rules {
		if need := windowsIn(r.Long, spec.Interval) + 2; need > capacity {
			capacity = need
		}
	}
	return &Monitor{
		spec:     spec,
		capacity: capacity,
		clock:    clock,
		schedule: schedule,
		pending:  pending,
		byName:   make(map[string]*target),
	}, nil
}

// windowsIn converts a lookback duration to a whole number of scrape
// windows, at least one.
func windowsIn(d, interval time.Duration) int {
	k := int(d / interval)
	if k < 1 {
		k = 1
	}
	return k
}

// Spec returns the validated, defaulted spec the monitor runs under.
func (m *Monitor) Spec() Spec {
	if m == nil {
		return Spec{}
	}
	return m.spec
}

// Register adds one endpoint's instruments. All targets must be
// registered before Start.
func (m *Monitor) Register(t Target) {
	tg := &target{
		Target: t,
		ring:   make([]Sample, m.capacity),
	}
	for i := range m.spec.SLOs {
		slo := m.spec.SLOs[i]
		if slo.Endpoint != "" && slo.Endpoint != t.Endpoint {
			continue
		}
		tg.slos = append(tg.slos, &sloSeries{
			slo:     slo,
			cumGood: make([]int64, m.capacity),
			cumBad:  make([]int64, m.capacity),
			firing:  make([]bool, len(m.spec.Rules)),
		})
	}
	m.targets = append(m.targets, tg)
	m.byName[t.Endpoint] = tg
}

// Subscribe adds an alert sink. Sinks run inside the finalizing kernel
// event, in registration order, for every alert transition — which makes
// their side effects (an early re-plan, a pool boost) land at the same
// simulated instant in every replay mode.
func (m *Monitor) Subscribe(fn func(AlertEvent)) {
	m.sinks = append(m.sinks, fn)
}

// Start (re)sets the series to empty, snapshots every instrument as the
// window-zero baseline, and arms the first scrape at base + Interval.
// The serving layer calls it when a replay window opens.
func (m *Monitor) Start(base time.Duration) {
	m.base = base
	m.started = true
	m.alerts = m.alerts[:0]
	for _, t := range m.targets {
		t.reset()
	}
	m.arm()
}

// arm schedules the next scrape on the kernel, aligned to the next
// base + k·Interval boundary strictly after now.
func (m *Monitor) arm() {
	if m.armed || !m.started {
		return
	}
	now := m.clock()
	k := (now-m.base)/m.spec.Interval + 1
	next := m.base + k*m.spec.Interval
	m.armed = true
	m.schedule(next-now, m.tick)
}

// tick is the scrape event: finalize every window that has closed by
// now, then re-arm while the service still has work in flight.
func (m *Monitor) tick() {
	m.armed = false
	if !m.started {
		return
	}
	now := m.clock()
	m.finalizeTo(now)
	if m.pending != nil && m.pending() {
		m.arm()
	}
}

// windows returns the number of windows every target has finalized (the
// targets advance in lockstep).
func (m *Monitor) windows() int {
	if len(m.targets) == 0 {
		return 0
	}
	return m.targets[0].n
}

// Flush finalizes every window that closed at or before end without a
// kernel event — the host-side safety net a replay's closing bookkeeping
// runs. In the replay flows all windows were already finalized by scrape
// events, so this is normally a no-op.
func (m *Monitor) Flush(end time.Duration) {
	if !m.started {
		return
	}
	m.finalizeTo(end)
}

// finalizeTo finalizes, in window order, every window whose closing
// boundary is at or before now.
func (m *Monitor) finalizeTo(now time.Duration) {
	if len(m.targets) == 0 {
		return
	}
	for m.base+time.Duration(m.windows()+1)*m.spec.Interval <= now {
		w := m.windows()
		for _, t := range m.targets {
			m.finalize(t, w)
		}
	}
}

// emptyWindow is the shared all-zero latency delta for windows with no
// new observations; it is read-only.
var emptyWindow obs.Histogram

// finalize closes window w of one target: delta the counters and the
// latency histogram against the previous boundary snapshot, read the
// gauges, evaluate the burn-rate rules and derive the health state.
// Quiet windows — no new latency observations since the last boundary —
// skip the histogram snapshot and delta entirely, so scraping an idle
// endpoint costs a few integer reads rather than bucket-array copies.
func (m *Monitor) finalize(t *target, w int) {
	cur := t.scrapeCounters()
	delta := &emptyWindow
	if t.Latency != nil && t.Latency.Count() != t.snap.lat.Count() {
		d := t.Latency.Delta(&t.snap.lat)
		delta = &d
		t.snap.lat = *t.Latency
	}
	s := Sample{
		Window:       w,
		Start:        time.Duration(w) * m.spec.Interval,
		End:          time.Duration(w+1) * m.spec.Interval,
		Requests:     cur.requests - t.snap.requests,
		Failures:     cur.failures - t.snap.failures,
		Shed:         cur.shed - t.snap.shed,
		Rerouted:     cur.rerouted - t.snap.rerouted,
		ColdStarts:   cur.cold - t.snap.cold,
		WarmStarts:   cur.warm - t.snap.warm,
		KVFailovers:  cur.kvFail - t.snap.kvFail,
		KVLostValues: cur.kvLost - t.snap.kvLost,
		QueueDepth:   t.QueueDepth.Value(),
		Replicas:     t.Replicas.Value(),
		LatencyCount: int64(delta.Count()),
		P50:          delta.Quantile(50),
		P95:          delta.Quantile(95),
		P99:          delta.Quantile(99),
	}
	t.snap.counters = cur

	health := Healthy
	if s.KVFailovers > 0 {
		// A shard failover window is in progress; the endpoint is
		// stalling writes regardless of what the burn rates say yet.
		health = Unhealthy
	}
	for _, ss := range t.slos {
		good, bad := ss.slo.split(&s, delta)
		prevGood, prevBad := int64(0), int64(0)
		if w > 0 {
			prevGood = ss.cumGood[(w-1)%m.capacity]
			prevBad = ss.cumBad[(w-1)%m.capacity]
		}
		ss.cumGood[w%m.capacity] = prevGood + good
		ss.cumBad[w%m.capacity] = prevBad + bad
		for ri := range m.spec.Rules {
			rule := m.spec.Rules[ri]
			burnS := ss.burn(w, windowsIn(rule.Short, m.spec.Interval), m.capacity)
			burnL := ss.burn(w, windowsIn(rule.Long, m.spec.Interval), m.capacity)
			firing := burnS >= rule.Burn && burnL >= rule.Burn
			if firing != ss.firing[ri] {
				ss.firing[ri] = firing
				ev := AlertEvent{
					At:        s.End,
					Endpoint:  t.Endpoint,
					SLO:       ss.slo.Name,
					Severity:  rule.Severity,
					Rule:      rule,
					Firing:    firing,
					BurnShort: burnS,
					BurnLong:  burnL,
				}
				m.alerts = append(m.alerts, ev)
				for _, sink := range m.sinks {
					sink(ev)
				}
			}
			if ss.firing[ri] {
				switch rule.Severity {
				case Page:
					health = Unhealthy
				case Ticket:
					if health == Healthy {
						health = Degraded
					}
				}
			}
		}
	}
	s.Health = health
	t.ring[w%m.capacity] = s
	t.n++
}

// burn returns the error-budget burn rate over the last k windows ending
// at window w: the bad fraction of events in that lookback divided by
// the budget (1 − objective). No traffic burns nothing.
func (ss *sloSeries) burn(w, k, capacity int) float64 {
	if k > w+1 {
		k = w + 1
	}
	good, bad := ss.cumGood[w%capacity], ss.cumBad[w%capacity]
	if w-k >= 0 {
		good -= ss.cumGood[(w-k)%capacity]
		bad -= ss.cumBad[(w-k)%capacity]
	}
	total := good + bad
	if total == 0 || bad == 0 {
		return 0
	}
	budget := 1 - ss.slo.Objective
	return (float64(bad) / float64(total)) / budget
}

// Series returns the retained windows of one endpoint, oldest first.
// With the default capacity that is the full replay; a longer run keeps
// the most recent Capacity windows.
func (m *Monitor) Series(endpoint string) []Sample {
	if m == nil {
		return nil
	}
	t := m.byName[endpoint]
	if t == nil {
		return nil
	}
	first := 0
	if t.n > m.capacity {
		first = t.n - m.capacity
	}
	out := make([]Sample, 0, t.n-first)
	for w := first; w < t.n; w++ {
		out = append(out, t.ring[w%m.capacity])
	}
	return out
}

// Endpoints returns the registered endpoint names, sorted.
func (m *Monitor) Endpoints() []string {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m.targets))
	for _, t := range m.targets {
		names = append(names, t.Endpoint)
	}
	sort.Strings(names)
	return names
}

// Alerts returns the alert log in canonical order: by simulated time,
// then endpoint, SLO, severity and transition, so the log does not
// depend on the order endpoints were scraped in.
func (m *Monitor) Alerts() []AlertEvent {
	if m == nil {
		return nil
	}
	out := make([]AlertEvent, len(m.alerts))
	copy(out, m.alerts)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Endpoint != b.Endpoint {
			return a.Endpoint < b.Endpoint
		}
		if a.SLO != b.SLO {
			return a.SLO < b.SLO
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity // pages before tickets
		}
		return !a.Firing && b.Firing
	})
	return out
}

// TimeInViolation sums the simulated time of windows where the named
// SLO's windowed bad fraction exceeded its error budget on the given
// endpoint — the flash-crowd experiments' headline number.
func (m *Monitor) TimeInViolation(endpoint, slo string) time.Duration {
	if m == nil {
		return 0
	}
	t := m.byName[endpoint]
	if t == nil {
		return 0
	}
	var ss *sloSeries
	for _, c := range t.slos {
		if c.slo.Name == slo {
			ss = c
			break
		}
	}
	if ss == nil {
		return 0
	}
	first := 0
	if t.n > m.capacity {
		first = t.n - m.capacity
	}
	budget := 1 - ss.slo.Objective
	var viol time.Duration
	for w := first; w < t.n; w++ {
		good, bad := ss.cumGood[w%m.capacity], ss.cumBad[w%m.capacity]
		if w > 0 {
			good -= ss.cumGood[(w-1)%m.capacity]
			bad -= ss.cumBad[(w-1)%m.capacity]
		}
		if total := good + bad; total > 0 && float64(bad)/float64(total) > budget {
			viol += m.spec.Interval
		}
	}
	return viol
}
