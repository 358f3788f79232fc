package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/workload"
)

func testModel(t *testing.T, neurons, layers int) *model.Model {
	t.Helper()
	m, err := model.Generate(model.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runsOf is ep's completed-run count: runs_total summed over its channel
// labels.
func runsOf(ep *Endpoint) int64 {
	var n int64
	for _, c := range ep.met.runsByChannel {
		n += c.Value()
	}
	return n
}

// twoEndpointService builds a service with a serial "small" endpoint and a
// distributed queue-channel "large" endpoint sharing one environment.
func twoEndpointService(t *testing.T, opts ...Option) (*Service, *model.Model, *model.Model) {
	t.Helper()
	small := testModel(t, 128, 6)
	large := testModel(t, 256, 6)
	base := []Option{
		WithEndpoint("small", small),
		WithEndpoint("large", large, WithChannel(core.Queue), WithWorkers(3)),
	}
	svc, err := NewService(env.NewDefault(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc, small, large
}

func TestConcurrentSubmitsToDifferentEndpointsBothComplete(t *testing.T) {
	svc, small, large := twoEndpointService(t)
	inSmall := model.GenerateInputs(128, 8, 0.2, 2)
	inLarge := model.GenerateInputs(256, 8, 0.2, 3)

	// Overlapping in virtual time: both arrive in the first second, and
	// the distributed run takes much longer than a serial one.
	hSmall := svc.Submit("small", inSmall, 100*time.Millisecond)
	hLarge := svc.Submit("large", inLarge, 0)

	rSmall, err := hSmall.Wait()
	if err != nil {
		t.Fatalf("small: %v", err)
	}
	rLarge, err := hLarge.Wait()
	if err != nil {
		t.Fatalf("large: %v", err)
	}
	if !model.OutputsClose(rSmall.Output, model.Reference(small, inSmall), 1e-2) {
		t.Fatal("small output diverges from reference")
	}
	if !model.OutputsClose(rLarge.Output, model.Reference(large, inLarge), 1e-2) {
		t.Fatal("large output diverges from reference")
	}
	if rSmall.Output.NNZ() == 0 || rLarge.Output.NNZ() == 0 {
		t.Fatal("degenerate all-zero outputs")
	}
	// Both ran inside one kernel drive: the serial request resolved
	// while the distributed one was still in flight.
	if svc.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	if rSmall.Latency >= rLarge.Latency {
		t.Fatalf("serial request (%v) should resolve before the distributed one (%v)",
			rSmall.Latency, rLarge.Latency)
	}
}

func TestCoalescingMergesRequestsIntoOneRun(t *testing.T) {
	svc, small, _ := twoEndpointService(t,
		WithCoalescing(64, 200*time.Millisecond))
	ep := svc.byName["small"]

	in1 := model.GenerateInputs(128, 4, 0.2, 2)
	in2 := model.GenerateInputs(128, 4, 0.2, 3)
	in3 := model.GenerateInputs(128, 4, 0.2, 4)
	h1 := svc.Submit("small", in1, 0)
	h2 := svc.Submit("small", in2, 50*time.Millisecond)
	h3 := svc.Submit("small", in3, 120*time.Millisecond)
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	if runsOf(ep) != 1 {
		t.Fatalf("runs = %d, want 1 coalesced run", runsOf(ep))
	}
	for i, h := range []*Handle{h1, h2, h3} {
		resp, err := h.Wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.BatchRequests != 3 || resp.BatchSamples != 12 {
			t.Fatalf("request %d batch = %d req / %d samples, want 3/12",
				i, resp.BatchRequests, resp.BatchSamples)
		}
	}
	// Each coalesced slice must still be that request's own answer.
	r1, _ := h1.Wait()
	r3, _ := h3.Wait()
	if !model.OutputsClose(r1.Output, model.Reference(small, in1), 1e-2) {
		t.Fatal("first coalesced request got the wrong slice")
	}
	if !model.OutputsClose(r3.Output, model.Reference(small, in3), 1e-2) {
		t.Fatal("last coalesced request got the wrong slice")
	}
}

func TestCoalescingFlushesAtMaxBatch(t *testing.T) {
	svc, _, _ := twoEndpointService(t,
		WithCoalescing(8, time.Hour)) // window would never expire on its own
	ep := svc.byName["small"]
	h1 := svc.Submit("small", model.GenerateInputs(128, 4, 0.2, 2), 0)
	h2 := svc.Submit("small", model.GenerateInputs(128, 4, 0.2, 3), 0)
	if _, err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	if runsOf(ep) != 1 {
		t.Fatalf("runs = %d, want 1 (flush at maxBatch)", runsOf(ep))
	}
	if got := svc.Now(); got >= time.Hour {
		t.Fatalf("batch waited for the delay timer (now=%v), want maxBatch flush", got)
	}
}

func TestBacklogQueuesBehindBusyReplica(t *testing.T) {
	// One replica, no same-instant arrivals: the second request must
	// queue and then ride its own run.
	svc, small, _ := twoEndpointService(t)
	ep := svc.byName["small"]
	in1 := model.GenerateInputs(128, 4, 0.2, 2)
	in2 := model.GenerateInputs(128, 4, 0.2, 3)
	h1 := svc.Submit("small", in1, 0)
	h2 := svc.Submit("small", in2, 10*time.Millisecond) // arrives mid-run
	r1, err := h1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if runsOf(ep) != 2 {
		t.Fatalf("runs = %d, want 2", runsOf(ep))
	}
	if r2.Latency <= r1.Latency {
		t.Fatalf("queued request latency %v should exceed first request %v", r2.Latency, r1.Latency)
	}
	if !model.OutputsClose(r2.Output, model.Reference(small, in2), 1e-2) {
		t.Fatal("queued request got the wrong output")
	}
}

func TestSubmitErrors(t *testing.T) {
	svc, _, _ := twoEndpointService(t)
	if _, err := svc.Submit("nope", model.GenerateInputs(128, 4, 0.2, 2), 0).Wait(); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if _, err := svc.Submit("small", model.GenerateInputs(64, 4, 0.2, 2), 0).Wait(); err == nil {
		t.Fatal("wrong input shape accepted")
	}
	if _, err := svc.Submit("small", nil, 0).Wait(); err == nil {
		t.Fatal("nil input accepted")
	}
}

func TestNewServiceValidation(t *testing.T) {
	e := env.NewDefault()
	if _, err := NewService(e); err == nil {
		t.Fatal("service without endpoints built")
	}
	m := testModel(t, 128, 4)
	if _, err := NewService(e, WithEndpoint("a", m), WithEndpoint("a", m)); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
	if _, err := NewService(e, WithEndpoint("a", nil)); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewService(e, WithEndpoint("a", m, WithChannel(core.Queue))); err == nil {
		t.Fatal("queue channel with one worker accepted")
	}
}

// replayService builds the acceptance-scale service: >= 2 endpoints, one
// of them distributed, with coalescing and a small warm pool.
func replayService(t *testing.T) *Service {
	t.Helper()
	svc, _, _ := twoEndpointService(t,
		WithCoalescing(64, 500*time.Millisecond),
		WithReplicas(2))
	return svc
}

func replayTrace() []workload.Query {
	// 120 queries x 8 samples over one simulated day, spread over both
	// model sizes (workload.Day alternates sizes per query).
	return workload.Day(120*8, []int{128, 256}, 8, 7)
}

func TestReplaySporadicDayMeasuresRealServing(t *testing.T) {
	if testing.Short() {
		t.Skip("replay is a long simulation")
	}
	svc := replayService(t)
	trace := replayTrace()
	if len(trace) < 100 {
		t.Fatalf("trace has %d queries, want >= 100", len(trace))
	}
	rep, err := svc.Replay(trace, ReplayOptions{Verify: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != len(trace) || rep.Failed != 0 {
		t.Fatalf("queries = %d failed = %d, want %d/0", rep.Queries, rep.Failed, len(trace))
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P95 <= 0 || rep.Latency.P99 <= 0 {
		t.Fatalf("zero latency percentiles: %+v", rep.Latency)
	}
	if rep.Latency.P50 > rep.Latency.P95 || rep.Latency.P95 > rep.Latency.P99 {
		t.Fatalf("percentiles out of order: %+v", rep.Latency)
	}
	if len(rep.Endpoints) != 2 {
		t.Fatalf("endpoint reports = %d, want 2", len(rep.Endpoints))
	}
	for _, ep := range rep.Endpoints {
		if ep.Queries == 0 || ep.Runs == 0 {
			t.Fatalf("endpoint %s served nothing: %+v", ep.Name, ep)
		}
		if ep.Cost.Total() <= 0 {
			t.Fatalf("endpoint %s has no cost: %+v", ep.Name, ep.Cost)
		}
		if ep.AvgRunSamples <= 0 || ep.MaxRunSamples <= 0 {
			t.Fatalf("endpoint %s missing coalescing stats: %+v", ep.Name, ep)
		}
	}
	if rep.TotalCost.Total() <= 0 {
		t.Fatalf("no metered cost: %+v", rep.TotalCost)
	}
	if rep.ColdStarts == 0 {
		t.Fatal("a sporadic day should meter cold starts")
	}
	// The queue endpoint's reconstructed ledger cost should roughly
	// agree with its share of the metered total (§VI-F-style check):
	// the ledger sum across endpoints tracks the metered bill.
	ledger := 0.0
	for _, ep := range rep.Endpoints {
		ledger += ep.Cost.Total()
	}
	metered := rep.TotalCost.Total()
	if ledger <= 0 || metered <= 0 {
		t.Fatal("missing cost measurements")
	}
	ratio := ledger / metered
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("ledger cost $%.6f vs metered $%.6f (ratio %.3f): reconstruction drifted", ledger, metered, ratio)
	}
}

func TestReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay is a long simulation")
	}
	run := func() string {
		svc := replayService(t)
		rep, err := svc.Replay(replayTrace(), ReplayOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same trace + seed produced different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "endpoint small") || !strings.Contains(a, "endpoint large") {
		t.Fatalf("report missing endpoint sections:\n%s", a)
	}
}

// TestRejectedReplaySubmitsNothing: a replay rejected before it runs —
// its chaos schedule names an unknown endpoint, its route rejects a
// query, or (streaming) an arrival precedes the one before it — must
// leave nothing pending, so the next replay on the same service reports
// exactly what it would on a fresh one.
func TestRejectedReplaySubmitsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("replay is a long simulation")
	}
	trace := workload.Day(40*8, []int{128, 256}, 8, 7)
	// The stream's first batch is trace[0:8]; its 6th arrival goes back
	// in time.
	disordered := append([]workload.Query(nil), trace...)
	disordered[5].At = disordered[4].At - time.Nanosecond
	rejects := []struct {
		name       string
		trace      []workload.Query
		opts       func() ReplayOptions
		streamOnly bool
	}{
		{"chaos", trace, func() ReplayOptions {
			return ReplayOptions{Seed: 11, Chaos: []ChaosEvent{{Kind: KillNode, Endpoint: "nope"}}}
		}, false},
		{"route", trace, func() ReplayOptions {
			routed := 0
			return ReplayOptions{Seed: 11, Route: func(q workload.Query) (string, bool) {
				routed++
				if routed == 3 {
					return "", false
				}
				if q.Neurons == 128 {
					return "small", true
				}
				return "large", true
			}}
		}, false},
		{"order", disordered, func() ReplayOptions { return ReplayOptions{Seed: 11} }, true},
	}
	for _, tc := range []struct {
		name   string
		stream bool
		replay func(*Service, []workload.Query, ReplayOptions) (*Report, error)
	}{
		{"Replay", false, func(s *Service, tr []workload.Query, o ReplayOptions) (*Report, error) {
			return s.Replay(tr, o)
		}},
		{"ReplayStream", true, func(s *Service, tr []workload.Query, o ReplayOptions) (*Report, error) {
			return s.ReplayStream(workload.Stream(tr, 8), o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.replay(replayService(t), trace, ReplayOptions{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range rejects {
				if bad.streamOnly && !tc.stream {
					continue
				}
				t.Run(bad.name, func(t *testing.T) {
					svc := replayService(t)
					if _, err := tc.replay(svc, bad.trace, bad.opts()); err == nil {
						t.Fatal("replay was not rejected")
					}
					if n := len(svc.pending); n != 0 {
						t.Fatalf("rejected replay left %d queries pending", n)
					}
					got, err := tc.replay(svc, trace, ReplayOptions{Seed: 11})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("replay after a rejected one differs from a fresh service's:\n--- after ---\n%s\n--- fresh ---\n%s", got, want)
					}
				})
			}
		})
	}
}

// TestPriorityBreakdownIdenticalAcrossReplayModes: Replay and
// ReplayStream fold through the same accumulator, so they report the same
// per-priority class counts, and those counts sum to each endpoint's
// served queries — including the class-0 requests served before the
// first non-zero-priority one.
func TestPriorityBreakdownIdenticalAcrossReplayModes(t *testing.T) {
	if testing.Short() {
		t.Skip("replay is a long simulation")
	}
	trace := workload.Day(40*8, []int{128, 256}, 8, 7)
	opts := ReplayOptions{Seed: 11, Submit: func(i int, _ workload.Query) SubmitOptions {
		if i >= 20 && i%2 == 0 {
			return SubmitOptions{Priority: 1}
		}
		return SubmitOptions{}
	}}
	batch, err := replayService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := replayService(t).ReplayStream(workload.Stream(trace, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	classes := func(er EndpointReport) map[int]int {
		out := make(map[int]int)
		for _, pl := range er.PerPriority {
			out[pl.Priority] = pl.Latency.Count
		}
		return out
	}
	for i, be := range batch.Endpoints {
		se := stream.Endpoints[i]
		bc, sc := classes(be), classes(se)
		if len(bc) < 2 {
			t.Fatalf("endpoint %s: breakdown %v, want two classes", be.Name, bc)
		}
		if !reflect.DeepEqual(bc, sc) {
			t.Errorf("endpoint %s: classes diverge: Replay %v, ReplayStream %v", be.Name, bc, sc)
		}
		for _, er := range []EndpointReport{be, se} {
			sum := 0
			for _, n := range classes(er) {
				sum += n
			}
			if served := er.Queries - er.Failed; sum != served {
				t.Errorf("endpoint %s: classes %v sum to %d, want the %d served queries", er.Name, classes(er), sum, served)
			}
		}
	}
}

func TestFailedRunFailsItsRequestsButNotTheService(t *testing.T) {
	// An endpoint whose function timeout is far too small fails its
	// requests with a real error; a healthy endpoint sharing the
	// service still serves correctly.
	small := testModel(t, 128, 6)
	doomed := testModel(t, 256, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ok", small),
		WithEndpoint("doomed", doomed, WithChannel(core.Queue), WithWorkers(3),
			WithDeployOverride(func(c *core.Config) { c.FunctionTimeout = 400 * time.Millisecond })),
	)
	if err != nil {
		t.Fatal(err)
	}
	in := model.GenerateInputs(128, 4, 0.2, 2)
	hOK := svc.Submit("ok", in, 0)
	hBad := svc.Submit("doomed", model.GenerateInputs(256, 4, 0.2, 2), 0)
	if _, err := hBad.Wait(); err == nil {
		t.Fatal("doomed request succeeded")
	}
	resp, err := hOK.Wait()
	if err != nil {
		t.Fatalf("healthy endpoint failed: %v", err)
	}
	if !model.OutputsClose(resp.Output, model.Reference(small, in), 1e-2) {
		t.Fatal("healthy endpoint wrong output")
	}
}
