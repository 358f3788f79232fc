package main

import (
	"testing"
	"time"

	fsd "fsdinference"
	"fsdinference/internal/obs"
)

func TestStageSelfSyntheticTree(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	span := func(id, parent int, name string, start, end int) fsd.TraceSpan {
		return fsd.TraceSpan{ID: obs.SpanID(id), Parent: obs.SpanID(parent), Name: name, Start: ms(start), End: ms(end)}
	}
	spans := []fsd.TraceSpan{
		span(1, 0, "request", 0, 100),
		span(2, 1, "coalesce", 0, 30),
		span(3, 1, "queue", 30, 50),
		span(4, 0, "run", 50, 100),
		span(5, 4, "worker", 55, 95),
		span(6, 5, "layer", 60, 70),
		span(7, 5, "send", 65, 80),  // overlaps layer: the union counts once
		span(8, 5, "recv", 90, 100), // outlives its parent: clipped at 95
	}
	want := map[string]time.Duration{
		"request":  ms(50), // 100 - coalesce 30 - queue 20
		"coalesce": ms(30),
		"queue":    ms(20),
		"run":      ms(10), // 50 - worker 40
		"worker":   ms(15), // 40 - union{[60,80], [90,95]} = 40 - 25
		"layer":    ms(10),
		"send":     ms(15),
		"recv":     ms(10),
	}
	got := stageSelf(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s self = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d stages, want %d", len(got), len(want))
	}

	// Two sampled requests: per-request self time halves the totals.
	two := append(spans, span(9, 0, "request", 0, 10))
	m := stageMetrics(two)
	if m["stage.worker.self_ms"] != 7.5 || m["stage.queue.self_ms"] != 10 {
		t.Errorf("per-request worker %v, queue %v; want 7.5, 10", m["stage.worker.self_ms"], m["stage.queue.self_ms"])
	}
}
