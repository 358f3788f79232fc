package monitor

import (
	"fmt"
	"io"
	"time"
)

// WriteCSV dumps every retained window of every endpoint as a CSV
// time-series, endpoints in name order, windows oldest first. The column
// set is fixed and the row order canonical, so whole-trace and streamed
// replays of the same trace produce byte-identical dumps.
func (m *Monitor) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "endpoint,window,start_s,end_s,requests,rps,failures,shed,rerouted,cold_starts,warm_starts,kv_failovers,kv_lost_values,queue_depth,replicas,lat_count,p50_ms,p95_ms,p99_ms,health"); err != nil {
		return err
	}
	for _, name := range m.Endpoints() {
		for _, s := range m.Series(name) {
			if _, err := fmt.Fprintf(w, "%s,%d,%g,%g,%d,%g,%d,%d,%d,%d,%d,%d,%d,%g,%g,%d,%g,%g,%g,%s\n",
				name, s.Window, s.Start.Seconds(), s.End.Seconds(),
				s.Requests, s.RPS(), s.Failures, s.Shed, s.Rerouted,
				s.ColdStarts, s.WarmStarts, s.KVFailovers, s.KVLostValues,
				s.QueueDepth, s.Replicas, s.LatencyCount,
				ms(s.P50), ms(s.P95), ms(s.P99), s.Health); err != nil {
				return err
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteProm renders a Prometheus-style text exposition of the state at
// the last finalized window: cumulative counters, last-window gauges and
// windowed percentiles, health, and per-SLO burn rates with firing
// flags. Deterministic: endpoints in name order, one fixed metric order.
func (m *Monitor) WriteProm(w io.Writer) error {
	write := func(format string, args ...any) bool {
		_, err := fmt.Fprintf(w, format, args...)
		return err == nil
	}
	for _, name := range m.Endpoints() {
		t := m.byName[name]
		if t.n == 0 {
			continue
		}
		last := t.ring[(t.n-1)%m.capacity]
		counters := []struct {
			metric string
			v      int64
		}{
			{"fsd_requests_total", t.snap.requests},
			{"fsd_request_failures_total", t.snap.failures},
			{"fsd_requests_shed_total", t.snap.shed},
			{"fsd_requests_rerouted_total", t.snap.rerouted},
			{"fsd_cold_starts_total", t.snap.cold},
			{"fsd_warm_starts_total", t.snap.warm},
			{"fsd_kv_failovers_total", t.snap.kvFail},
			{"fsd_kv_lost_values_total", t.snap.kvLost},
		}
		for _, c := range counters {
			if !write("# TYPE %s counter\n%s{endpoint=%q} %d\n", c.metric, c.metric, name, c.v) {
				return fmt.Errorf("monitor: prom write failed")
			}
		}
		gauges := []struct {
			metric string
			v      float64
		}{
			{"fsd_rps", last.RPS()},
			{"fsd_queue_depth", last.QueueDepth},
			{"fsd_replica_pool_size", last.Replicas},
			{"fsd_request_latency_p50_ms", ms(last.P50)},
			{"fsd_request_latency_p95_ms", ms(last.P95)},
			{"fsd_request_latency_p99_ms", ms(last.P99)},
			{"fsd_health", float64(last.Health)},
		}
		for _, g := range gauges {
			if !write("# TYPE %s gauge\n%s{endpoint=%q} %g\n", g.metric, g.metric, name, g.v) {
				return fmt.Errorf("monitor: prom write failed")
			}
		}
		for _, ss := range t.slos {
			w0 := t.n - 1
			for ri, rule := range m.spec.Rules {
				burnS := ss.burn(w0, windowsIn(rule.Short, m.spec.Interval), m.capacity)
				burnL := ss.burn(w0, windowsIn(rule.Long, m.spec.Interval), m.capacity)
				firing := 0
				if ss.firing[ri] {
					firing = 1
				}
				if !write("fsd_slo_burn_rate{endpoint=%q,slo=%q,window=%q} %g\nfsd_slo_burn_rate{endpoint=%q,slo=%q,window=%q} %g\nfsd_alert_firing{endpoint=%q,slo=%q,severity=%q} %d\n",
					name, ss.slo.Name, rule.Short, burnS,
					name, ss.slo.Name, rule.Long, burnL,
					name, ss.slo.Name, rule.Severity, firing) {
					return fmt.Errorf("monitor: prom write failed")
				}
			}
		}
	}
	return nil
}

// WriteAlerts renders the alert log, one transition per line, in the
// canonical order Alerts returns.
func (m *Monitor) WriteAlerts(w io.Writer) error {
	events := m.Alerts()
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(no alerts fired)")
		return err
	}
	for _, ev := range events {
		state := "resolved"
		if ev.Firing {
			state = "FIRING"
		}
		if _, err := fmt.Fprintf(w, "[%10v] %-6s %-8s endpoint=%s slo=%s burn %.2fx/%.2fx over %v/%v (>= %gx)\n",
			ev.At, ev.Severity, state, ev.Endpoint, ev.SLO,
			ev.BurnShort, ev.BurnLong, ev.Rule.Short, ev.Rule.Long, ev.Rule.Burn); err != nil {
			return err
		}
	}
	return nil
}
