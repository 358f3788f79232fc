package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// manualClock returns a clock function plus a setter, so tests control
// simulated time exactly.
func manualClock() (func() time.Duration, func(time.Duration)) {
	var now time.Duration
	return func() time.Duration { return now }, func(d time.Duration) { now = d }
}

// TestNilTracerSafe is the zero-overhead contract: a nil tracer and the
// zero SpanRef/Scope must no-op every operation without panicking.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Sample(0) {
		t.Error("nil tracer samples")
	}
	ref := tr.Start("tk", "s", KindOp, 0)
	if ref.Active() {
		t.Error("zero ref active")
	}
	if ref.ID() != 0 {
		t.Error("zero ref has id")
	}
	ref.SetAttr("k", "v")
	ref.SetAsync("a")
	if c := ref.Child("c", KindOp); c.Active() {
		t.Error("child of zero ref active")
	}
	ref.End()
	ref.End()
	tr.Event("tk", "e", KindEvent)
	if tr.Spans() != nil {
		t.Error("nil tracer has spans")
	}

	var sc Scope
	if sub := sc.Sub("kv"); sub.T != nil || sub.Track != "" {
		t.Errorf("zero scope Sub not zero: %+v", sub)
	}
	sc.Event("e", KindEvent)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer chrome output invalid JSON: %v", err)
	}
	buf.Reset()
	if err := tr.WriteFlame(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "span") {
		t.Errorf("flame header missing: %q", buf.String())
	}
}

// TestSpanLifecycle checks timestamps, parenting, attrs and async-id
// inheritance through one request-shaped span tree.
func TestSpanLifecycle(t *testing.T) {
	clock, set := manualClock()
	tr := New(clock, 1)

	set(10 * time.Millisecond)
	req := tr.Start("ep", "request", KindRequest, 0)
	req.SetAsync("q0")
	req.SetAttr("samples", "8")
	if !req.Active() {
		t.Fatal("fresh span not active")
	}

	set(12 * time.Millisecond)
	phase := req.Child("queue", KindPhase)
	if !phase.Active() {
		t.Fatal("child not active")
	}
	set(15 * time.Millisecond)
	phase.End()
	set(20 * time.Millisecond)
	req.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// End order: phase first.
	ph, rq := spans[0], spans[1]
	if ph.Name != "queue" || ph.Start != 12*time.Millisecond || ph.End != 15*time.Millisecond {
		t.Errorf("phase span wrong: %+v", ph)
	}
	if ph.Parent != rq.ID {
		t.Errorf("phase parent %d, request id %d", ph.Parent, rq.ID)
	}
	if ph.AID != "q0" || ph.Track != "ep" {
		t.Errorf("child did not inherit aid/track: %+v", ph)
	}
	if rq.Start != 10*time.Millisecond || rq.End != 20*time.Millisecond {
		t.Errorf("request times wrong: %+v", rq)
	}
	if len(rq.Attrs) != 1 || rq.Attrs[0] != (Attr{"samples", "8"}) {
		t.Errorf("request attrs wrong: %+v", rq.Attrs)
	}
}

// TestArenaReuse verifies sequential spans recycle one arena slot instead
// of growing the active list.
func TestArenaReuse(t *testing.T) {
	clock, set := manualClock()
	tr := New(clock, 1)
	for i := 0; i < 100; i++ {
		set(time.Duration(i) * time.Microsecond)
		sp := tr.Start("tk", "s", KindOp, 0)
		sp.End()
	}
	if len(tr.active) != 1 {
		t.Errorf("arena grew to %d slots for sequential spans, want 1", len(tr.active))
	}
	if len(tr.done) != 100 {
		t.Errorf("got %d finished spans, want 100", len(tr.done))
	}
}

// TestEndIdempotent: a second End, and any operation through a stale ref
// whose slot has been recycled, must not corrupt the new occupant.
func TestEndIdempotent(t *testing.T) {
	clock, set := manualClock()
	tr := New(clock, 1)

	a := tr.Start("tk", "a", KindOp, 0)
	set(time.Millisecond)
	a.End()
	a.End() // idempotent
	if len(tr.done) != 1 {
		t.Fatalf("double End recorded %d spans", len(tr.done))
	}

	// b reuses a's slot; the stale ref must not touch it.
	b := tr.Start("tk", "b", KindOp, 0)
	a.SetAttr("stale", "1")
	a.SetAsync("stale")
	a.End()
	if !b.Active() {
		t.Fatal("stale End closed the slot's new occupant")
	}
	if c := a.Child("stale", KindOp); c.Active() {
		t.Error("stale ref spawned a child")
	}
	set(2 * time.Millisecond)
	b.End()
	got := tr.done[1]
	if got.Name != "b" || len(got.Attrs) != 0 || got.AID != "" {
		t.Errorf("stale ref corrupted new span: %+v", got)
	}
}

// TestSampling checks the pure 1-in-N rule every replay mode shares.
func TestSampling(t *testing.T) {
	clock, _ := manualClock()
	every3 := New(clock, 3)
	for idx, want := range map[int]bool{0: true, 1: false, 2: false, 3: true, 6: true, -1: false} {
		if got := every3.Sample(idx); got != want {
			t.Errorf("every=3 Sample(%d) = %v, want %v", idx, got, want)
		}
	}
	for _, every := range []int{0, 1} {
		tr := New(clock, every)
		for idx := 0; idx < 5; idx++ {
			if !tr.Sample(idx) {
				t.Errorf("every=%d Sample(%d) = false", every, idx)
			}
		}
	}
}

// fixtureTracer records one span of each exporter shape on two tracks.
func fixtureTracer(t *testing.T, reorder bool) *Tracer {
	t.Helper()
	clock, set := manualClock()
	tr := New(clock, 1)
	emitA := func() {
		set(time.Millisecond)
		req := tr.Start("epA", "request", KindRequest, 0)
		req.SetAsync("q0")
		req.SetAttr("samples", "4")
		set(3 * time.Millisecond)
		req.End()
	}
	emitB := func() {
		set(2 * time.Millisecond)
		op := tr.Start("epB/r0/w1", "layer", KindOp, 0)
		op.SetAttr("k", "2")
		set(4 * time.Millisecond)
		op.End()
		tr.Event("epB/r0/kv/s0", "moved", KindEvent)
	}
	if reorder {
		emitB()
		emitA()
	} else {
		emitA()
		emitB()
	}
	return tr
}

// TestWriteChromeOrderIndependent: the same spans recorded in a different
// order must serialize to the same bytes — the property the replay modes'
// byte-identical-trace contract rests on.
func TestWriteChromeOrderIndependent(t *testing.T) {
	var a, b bytes.Buffer
	if err := fixtureTracer(t, false).WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := fixtureTracer(t, true).WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("record order leaked into export:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
}

// chromeEvent mirrors the trace-event fields the schema test checks.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	TS   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	ID   string          `json:"id"`
	S    string          `json:"s"`
	Args json.RawMessage `json:"args"`
}

// validateChrome parses a Chrome trace export and checks every event
// against the trace-event schema. Shared with the serving-layer test.
func validateChrome(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, data)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	begins := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Errorf("event %d has no name", i)
		}
		if ev.PID != 1 {
			t.Errorf("event %d pid = %d, want 1", i, ev.PID)
		}
		switch ev.Ph {
		case "M":
			// Metadata carries no timestamp.
		case "X":
			if _, err := strconv.ParseFloat(ev.Dur.String(), 64); err != nil {
				t.Errorf("event %d (%s) bad dur %q", i, ev.Name, ev.Dur)
			}
			fallthrough
		case "i":
			if ev.Ph == "i" && ev.S != "t" {
				t.Errorf("instant %d scope = %q, want t", i, ev.S)
			}
			fallthrough
		case "b", "e":
			if ev.TID < 1 {
				t.Errorf("event %d (%s) tid = %d", i, ev.Name, ev.TID)
			}
			if _, err := strconv.ParseFloat(ev.TS.String(), 64); err != nil {
				t.Errorf("event %d (%s) bad ts %q", i, ev.Name, ev.TS)
			}
			if ev.Ph == "b" || ev.Ph == "e" {
				if ev.ID == "" {
					t.Errorf("async event %d (%s) has no id", i, ev.Name)
				}
				if ev.Ph == "b" {
					begins[ev.Cat+"\x00"+ev.ID]++
				} else {
					begins[ev.Cat+"\x00"+ev.ID]--
				}
			}
		default:
			t.Errorf("event %d has unknown phase %q", i, ev.Ph)
		}
	}
	for k, n := range begins {
		if n != 0 {
			t.Errorf("unbalanced async pair %q: %+d begins", k, n)
		}
	}
	return doc.TraceEvents
}

// TestWriteChromeSchema validates the export of one span of each shape.
func TestWriteChromeSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureTracer(t, false).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	events := validateChrome(t, buf.Bytes())
	shapes := map[string]bool{}
	for _, ev := range events {
		shapes[ev.Ph] = true
	}
	for _, ph := range []string{"M", "X", "b", "e", "i"} {
		if !shapes[ph] {
			t.Errorf("export missing a %q event", ph)
		}
	}
	// No raw span IDs: async ids are the mode-stable strings we set.
	for _, ev := range events {
		if ev.Ph == "b" && ev.ID != "q0" {
			t.Errorf("async id %q, want mode-stable q0", ev.ID)
		}
	}
}

// TestWriteFlame checks aggregation and ordering of the text summary.
func TestWriteFlame(t *testing.T) {
	clock, set := manualClock()
	tr := New(clock, 1)
	for i := 0; i < 3; i++ {
		set(time.Duration(i) * time.Millisecond)
		sp := tr.Start("tk", "layer", KindOp, 0)
		set(time.Duration(i)*time.Millisecond + 2*time.Millisecond)
		sp.End()
	}
	set(10 * time.Millisecond)
	one := tr.Start("tk", "load", KindOp, 0)
	set(11 * time.Millisecond)
	one.End()

	var buf bytes.Buffer
	if err := tr.WriteFlame(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got:\n%s", out)
	}
	// layer (3 x 2ms = 6ms total) sorts above load (1ms).
	if !strings.HasPrefix(lines[1], "layer") || !strings.HasPrefix(lines[2], "load") {
		t.Errorf("rows out of order:\n%s", out)
	}
	if !strings.Contains(lines[1], " 3 ") {
		t.Errorf("layer row missing count 3:\n%s", out)
	}
}

// TestScopeSub checks track composition.
func TestScopeSub(t *testing.T) {
	clock, _ := manualClock()
	tr := New(clock, 1)
	sc := Scope{T: tr, Track: "ep/r1", Parent: 7}
	sub := sc.Sub("kv")
	if sub.Track != "ep/r1/kv" || sub.T != tr || sub.Parent != 7 {
		t.Errorf("Sub wrong: %+v", sub)
	}
	sub.Event("moved", KindEvent)
	if len(tr.Spans()) != 1 || tr.Spans()[0].Track != "ep/r1/kv" {
		t.Errorf("scope event wrong: %+v", tr.Spans())
	}
}

// TestRegistry exercises instrument identity, labels, nil-safety,
// window baselines and snapshot ordering.
func TestRegistry(t *testing.T) {
	var nilReg *Registry
	if nilReg.Counter("x") != nil || nilReg.Gauge("x") != nil || nilReg.Histogram("x") != nil {
		t.Error("nil registry returned an instrument")
	}
	nilReg.Counter("x").Inc() // nil counter must be inert
	if nilReg.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}

	r := NewRegistry()
	c := r.Counter("requests_total", "endpoint", "a")
	if c != r.Counter("requests_total", "endpoint", "a") {
		t.Error("same key gave different counters")
	}
	if c == r.Counter("requests_total", "endpoint", "b") {
		t.Error("different labels gave the same counter")
	}
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	r.Gauge("queue_depth", "endpoint", "a").Set(5)
	if got := r.Gauge("queue_depth", "endpoint", "a").Value(); got != 5 {
		t.Errorf("gauge = %g, want 5", got)
	}
	base := r.CounterValues()
	c.Inc()
	late := r.Counter("runs_total", "endpoint", "a")
	late.Add(2)
	if d := c.Value() - base[c]; d != 1 {
		t.Errorf("counter delta over window = %d, want 1", d)
	}
	if d := late.Value() - base[late]; d != 2 {
		t.Errorf("delta of a counter created inside the window = %d, want 2", d)
	}
	h := r.Histogram("latency_ns", "endpoint", "a")
	h.Observe(time.Millisecond)
	if h != r.Histogram("latency_ns", "endpoint", "a") || h.Count() != 1 {
		t.Errorf("histogram identity or count wrong: count %d", h.Count())
	}

	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Key >= snap[i].Key {
			t.Errorf("snapshot not sorted: %q >= %q", snap[i-1].Key, snap[i].Key)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "requests_total{endpoint=a}") {
		t.Errorf("WriteText missing labelled key:\n%s", buf.String())
	}
}
