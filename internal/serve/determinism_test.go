package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/workload"
)

// threeSizeService builds a service with one serial endpoint per model
// size (64, 128 and 256 neurons), coalescing and two replicas each.
func threeSizeService(t *testing.T) *Service {
	t.Helper()
	var opts []Option
	for _, n := range []int{64, 128, 256} {
		opts = append(opts, WithEndpoint(fmt.Sprintf("s%d", n), testModel(t, n, 3)))
	}
	opts = append(opts, WithCoalescing(32, 150*time.Millisecond), WithReplicas(2))
	svc, err := NewService(env.NewDefault(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestReplaySameSeedIdenticalReports replays the same trace twice on
// identically configured fresh services and diffs the full ServiceReports:
// every field — counts, latencies, costs, per-endpoint breakdowns, the
// rendered report text — must match bit-for-bit. This is the determinism
// contract the planner's cached probe trials stand on.
func TestReplaySameSeedIdenticalReports(t *testing.T) {
	trace := workload.Day(30*6, []int{64, 128, 256}, 6, 5)
	opts := ReplayOptions{Seed: 23}

	a, err := threeSizeService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := threeSizeService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed replays diverge:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("rendered reports diverge:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestReplayStreamSameSeedIdenticalReports is the streaming counterpart:
// two ReplayStream passes over the same diurnal stream must fold to
// identical reports, including the histogram-derived percentiles.
func TestReplayStreamSameSeedIdenticalReports(t *testing.T) {
	opts := ReplayOptions{Seed: 23}
	run := func() *Report {
		rep, err := threeSizeService(t).ReplayStream(
			workload.DiurnalDay(1200, []int{64, 128, 256}, 4, 5, 128), opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed streaming replays diverge:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}
