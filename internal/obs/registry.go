package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Inc adds one. Nil-safe so uninstrumented paths cost one comparison.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct{ v float64 }

// Set records the current value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last value set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Registry holds named, labelled instruments. Like the tracer it is
// single-threaded, owned by one kernel. Instrument lookups are map hits, so hot paths should
// resolve their instruments once at build time and hold the pointers.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// instrumentKey renders "name{k=v,k=v}" from alternating label key/value
// pairs, preserving caller order so the same call site always produces
// the same key.
func instrumentKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter with the given name
// and alternating label key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	k := instrumentKey(name, labels)
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given name and
// labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := instrumentKey(name, labels)
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with the given
// name and labels.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := instrumentKey(name, labels)
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// CounterValues returns every counter's current value, keyed by the
// counter. It is a window baseline: a counter's count over the window is
// its Value minus its baseline entry (zero for a counter created since).
func (r *Registry) CounterValues() map[*Counter]int64 {
	out := make(map[*Counter]int64, len(r.counters))
	for _, c := range r.counters {
		out[c] = c.v
	}
	return out
}

// Metric is one snapshotted instrument.
type Metric struct {
	Key  string // "name{label=value,...}"
	Type string // "counter", "gauge", "histogram"

	Count int64   // counter value or histogram count
	Value float64 // gauge value

	// Histogram percentiles (bucket upper bounds, max-clamped).
	P50, P95, P99 time.Duration
	Mean          time.Duration
}

// Snapshot returns every instrument sorted by key. It can be taken
// mid-replay (between kernel events) for time-series windows; it copies
// values, so later updates don't retroactively change a window.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, c := range r.counters {
		out = append(out, Metric{Key: k, Type: "counter", Count: c.v})
	}
	for k, g := range r.gauges {
		out = append(out, Metric{Key: k, Type: "gauge", Value: g.v})
	}
	for k, h := range r.hists {
		m := Metric{Key: k, Type: "histogram", Count: int64(h.count)}
		if h.count > 0 {
			m.Mean = h.sum / time.Duration(h.count)
			m.P50, m.P95, m.P99 = h.Quantile(50), h.Quantile(95), h.Quantile(99)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// WriteText renders the snapshot as aligned plain text, one instrument
// per line.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		var err error
		switch m.Type {
		case "counter":
			_, err = fmt.Fprintf(w, "%-56s %12d\n", m.Key, m.Count)
		case "gauge":
			_, err = fmt.Fprintf(w, "%-56s %12g\n", m.Key, m.Value)
		default:
			_, err = fmt.Fprintf(w, "%-56s %12d  mean %-10v p50 %-10v p95 %-10v p99 %v\n",
				m.Key, m.Count, m.Mean, m.P50, m.P95, m.P99)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
