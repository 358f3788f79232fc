package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WriteChrome renders the finished spans as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. One track (thread) per
// logical timeline — replica, worker, KV shard — all under a single
// process.
//
// The output is canonical: events carry no allocation-order span IDs
// (request and run pairs correlate through their mode-stable async ids),
// threads are numbered from the sorted track names, and events are
// ordered by (timestamp, rendered bytes). Two tracers holding the same
// spans therefore serialize to the same bytes regardless of the order
// the spans were recorded in — the property that makes whole-trace and
// streamed replays byte-comparable.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n")
		return err
	}

	tids := map[string]int{}
	for i := range t.done {
		tids[t.done[i].Track] = 0
	}
	tracks := make([]string, 0, len(tids))
	for tr := range tids {
		tracks = append(tracks, tr)
	}
	sort.Strings(tracks)
	for i, tr := range tracks {
		tids[tr] = i + 1
	}

	type event struct {
		ts   int64 // start ns, for the primary sort key
		line string
	}
	events := make([]event, 0, 2*len(t.done))
	for i := range t.done {
		sp := &t.done[i]
		tid := tids[sp.Track]
		switch {
		case sp.Kind == KindEvent:
			var b strings.Builder
			b.WriteString(`{"name":`)
			b.WriteString(strconv.Quote(sp.Name))
			b.WriteString(`,"cat":"event","ph":"i","ts":`)
			b.WriteString(chromeTS(sp.Start))
			fmt.Fprintf(&b, `,"pid":1,"tid":%d,"s":"t"`, tid)
			writeArgs(&b, sp.Attrs)
			b.WriteString("}")
			events = append(events, event{int64(sp.Start), b.String()})
		case sp.AID != "":
			// Async begin/end pair keyed on the mode-stable async id;
			// requests and their phases share one id and nest, runs get
			// their own.
			cat := "req"
			if sp.Kind == KindRun {
				cat = "run"
			}
			var b strings.Builder
			b.WriteString(`{"name":`)
			b.WriteString(strconv.Quote(sp.Name))
			b.WriteString(`,"cat":"` + cat + `","ph":"b","ts":`)
			b.WriteString(chromeTS(sp.Start))
			fmt.Fprintf(&b, `,"pid":1,"tid":%d,"id":`, tid)
			b.WriteString(strconv.Quote(sp.AID))
			writeArgs(&b, sp.Attrs)
			b.WriteString("}")
			events = append(events, event{int64(sp.Start), b.String()})

			var e strings.Builder
			e.WriteString(`{"name":`)
			e.WriteString(strconv.Quote(sp.Name))
			e.WriteString(`,"cat":"` + cat + `","ph":"e","ts":`)
			e.WriteString(chromeTS(sp.End))
			fmt.Fprintf(&e, `,"pid":1,"tid":%d,"id":`, tid)
			e.WriteString(strconv.Quote(sp.AID))
			e.WriteString("}")
			events = append(events, event{int64(sp.End), e.String()})
		default:
			// Duration slice on its track; nesting is by time, which is
			// identical across modes.
			var b strings.Builder
			b.WriteString(`{"name":`)
			b.WriteString(strconv.Quote(sp.Name))
			b.WriteString(`,"cat":"` + sp.Kind.String() + `","ph":"X","ts":`)
			b.WriteString(chromeTS(sp.Start))
			b.WriteString(`,"dur":`)
			b.WriteString(chromeTS(sp.End - sp.Start))
			fmt.Fprintf(&b, `,"pid":1,"tid":%d`, tid)
			writeArgs(&b, sp.Attrs)
			b.WriteString("}")
			events = append(events, event{int64(sp.Start), b.String()})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].ts != events[j].ts {
			return events[i].ts < events[j].ts
		}
		return events[i].line < events[j].line
	})

	var out strings.Builder
	out.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	out.WriteString("\n")
	out.WriteString(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"fsdinference"}}`)
	for _, tr := range tracks {
		tid := tids[tr]
		fmt.Fprintf(&out, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%s}}", tid, strconv.Quote(tr))
		fmt.Fprintf(&out, ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"sort_index\":%d}}", tid, tid)
	}
	for _, ev := range events {
		out.WriteString(",\n")
		out.WriteString(ev.line)
	}
	out.WriteString("\n]}\n")
	_, err := io.WriteString(w, out.String())
	return err
}

// chromeTS renders a simulated-time offset as trace-event microseconds
// with nanosecond precision — pure integer math, so the rendering is
// exact and deterministic.
func chromeTS(d time.Duration) string {
	ns := int64(d)
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// writeArgs appends a trace-event "args" object preserving attr order.
func writeArgs(b *strings.Builder, attrs []Attr) {
	if len(attrs) == 0 {
		return
	}
	b.WriteString(`,"args":{`)
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(a.Key))
		b.WriteByte(':')
		b.WriteString(strconv.Quote(a.Val))
	}
	b.WriteByte('}')
}

// WriteFlame renders a plain-text flame summary: finished spans
// aggregated by (kind, name) with count, total, mean and max simulated
// time, widest totals first. It answers "where did simulated time go"
// without leaving the terminal.
func (t *Tracer) WriteFlame(w io.Writer) error {
	type row struct {
		kind  Kind
		name  string
		count int
		total time.Duration
		max   time.Duration
	}
	byKey := map[string]*row{}
	if t != nil {
		for i := range t.done {
			sp := &t.done[i]
			key := sp.Kind.String() + "\x00" + sp.Name
			r := byKey[key]
			if r == nil {
				r = &row{kind: sp.Kind, name: sp.Name}
				byKey[key] = r
			}
			d := sp.End - sp.Start
			r.count++
			r.total += d
			if d > r.max {
				r.max = d
			}
		}
	}
	rows := make([]*row, 0, len(byKey))
	for _, r := range byKey {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		if rows[i].name != rows[j].name {
			return rows[i].name < rows[j].name
		}
		return rows[i].kind < rows[j].kind
	})
	if _, err := fmt.Fprintf(w, "%-16s %-8s %8s %14s %14s %14s\n",
		"span", "kind", "count", "total", "mean", "max"); err != nil {
		return err
	}
	if len(rows) == 0 {
		// Sampling can filter out every request of a small replay; say so
		// instead of emitting a bare header that reads like lost data.
		_, err := fmt.Fprintln(w, "(no sampled spans — every request fell outside the sampling stride; lower the sampling interval)")
		return err
	}
	for _, r := range rows {
		mean := r.total / time.Duration(r.count)
		if _, err := fmt.Fprintf(w, "%-16s %-8s %8d %14v %14v %14v\n",
			r.name, r.kind, r.count, r.total, mean, r.max); err != nil {
			return err
		}
	}
	return nil
}
