package serve

import (
	"testing"
	"time"

	"fsdinference/internal/workload"
)

// TestReplayStreamMatchesBatchReplay drives the same trace through the
// batch and streaming replays on identical fresh services: the simulated
// timelines must be identical (exact counts, horizon, mean/min/max), with
// only the percentile fields bucket-quantised.
func TestReplayStreamMatchesBatchReplay(t *testing.T) {
	trace := workload.Day(40*6, []int{64, 128, 256}, 6, 9)
	opts := ReplayOptions{Seed: 17}

	batch, err := threeSizeService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A small feed batch forces many JIT pulls mid-run.
	stream, err := threeSizeService(t).ReplayStream(workload.Stream(trace, 7), opts)
	if err != nil {
		t.Fatal(err)
	}

	if stream.Queries != batch.Queries || stream.Failed != batch.Failed || stream.Samples != batch.Samples {
		t.Fatalf("counts diverge: stream %d/%d/%d, batch %d/%d/%d",
			stream.Queries, stream.Failed, stream.Samples, batch.Queries, batch.Failed, batch.Samples)
	}
	if stream.Horizon != batch.Horizon {
		t.Fatalf("horizon diverges: stream %v, batch %v", stream.Horizon, batch.Horizon)
	}
	if stream.Latency.Count != batch.Latency.Count ||
		stream.Latency.Mean != batch.Latency.Mean ||
		stream.Latency.Min != batch.Latency.Min ||
		stream.Latency.Max != batch.Latency.Max {
		t.Fatalf("exact latency stats diverge:\nstream %+v\nbatch  %+v", stream.Latency, batch.Latency)
	}
	// Percentiles are bucket upper bounds: never below the exact value,
	// within a sub-bucket's width above it.
	for _, q := range []struct {
		name          string
		approx, exact time.Duration
	}{
		{"p50", stream.Latency.P50, batch.Latency.P50},
		{"p95", stream.Latency.P95, batch.Latency.P95},
		{"p99", stream.Latency.P99, batch.Latency.P99},
	} {
		if q.approx < q.exact {
			t.Errorf("%s: histogram %v below exact %v", q.name, q.approx, q.exact)
		}
		if float64(q.approx) > float64(q.exact)*1.07 {
			t.Errorf("%s: histogram %v more than ~6%% above exact %v", q.name, q.approx, q.exact)
		}
	}
	if stream.TotalCost.Total() != batch.TotalCost.Total() {
		t.Errorf("cost diverges: stream $%v, batch $%v", stream.TotalCost.Total(), batch.TotalCost.Total())
	}
	if len(stream.Endpoints) != len(batch.Endpoints) {
		t.Fatalf("endpoint count diverges")
	}
	for i := range stream.Endpoints {
		se, be := stream.Endpoints[i], batch.Endpoints[i]
		if se.Queries != be.Queries || se.Samples != be.Samples || se.Runs != be.Runs ||
			se.ColdStarts != be.ColdStarts || se.WarmStarts != be.WarmStarts {
			t.Errorf("endpoint %s diverges: stream %+v, batch %+v", se.Name, se, be)
		}
	}
}

// TestReplayStreamRejectsVerify pins the documented limitation.
func TestReplayStreamRejectsVerify(t *testing.T) {
	svc := threeSizeService(t)
	_, err := svc.ReplayStream(workload.Stream(workload.Day(6, []int{64}, 6, 1), 0), ReplayOptions{Verify: true})
	if err == nil {
		t.Fatal("streaming replay accepted Verify")
	}
}

// TestReplayStreamBoundedAhead checks the feeder's just-in-time property:
// the number of unresolved requests never exceeds the feed batch plus the
// requests genuinely in flight at one virtual instant.
func TestReplayStreamBoundedAhead(t *testing.T) {
	svc := threeSizeService(t)
	trace := workload.Day(60*6, []int{64, 128, 256}, 6, 4)
	peak := 0
	_, err := svc.ReplayStream(&peakStream{inner: workload.Stream(trace, 5), svc: svc, peak: &peak}, ReplayOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With a feed batch of 5 and sporadic day-spread arrivals, pending
	// should stay near the batch size — far below the 360-query trace.
	if peak > 60 {
		t.Fatalf("streaming kept %d requests pending at once (trace is 360)", peak)
	}
}

type peakStream struct {
	inner workload.TraceStream
	svc   *Service
	peak  *int
}

func (p *peakStream) Next() []workload.Query {
	if n := len(p.svc.pending); n > *p.peak {
		*p.peak = n
	}
	return p.inner.Next()
}
