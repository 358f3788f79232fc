package serve

import (
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/workload"
)

// counterValues reads every registry counter by its rendered key
// ("name{label=value,...}"), the same keys WriteText prints.
func counterValues(svc *Service) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range svc.Metrics().Snapshot() {
		if m.Type == "counter" {
			out[m.Key] = m.Count
		}
	}
	return out
}

// checkReportMatchesRegistry asserts that every count in rep equals the
// matching registry counter's delta between the before and after
// snapshots taken around the replay, per endpoint, and that the report's
// query and failure totals equal the resolved-request counters.
func checkReportMatchesRegistry(t *testing.T, rep *Report, before, after map[string]int64) {
	t.Helper()
	delta := func(key string) int { return int(after[key] - before[key]) }
	queries, failed := 0, 0
	for _, er := range rep.Endpoints {
		key := func(series string) string { return series + "{endpoint=" + er.Name + "}" }
		runs := 0
		for k := range after {
			if strings.HasPrefix(k, "runs_total{endpoint="+er.Name+",") {
				runs += delta(k)
			}
		}
		for _, c := range []struct {
			field  string
			got    int
			series string
			want   int
		}{
			{"Runs", er.Runs, "runs_total", runs},
			{"FailedRuns", er.FailedRuns, "run_failures_total", delta(key("run_failures_total"))},
			{"ColdStarts", er.ColdStarts, "cold_starts_total", delta(key("cold_starts_total"))},
			{"WarmStarts", er.WarmStarts, "warm_starts_total", delta(key("warm_starts_total"))},
			{"Shed", er.Shed, "requests_shed_total", delta(key("requests_shed_total"))},
			{"Rerouted", er.Rerouted, "requests_rerouted_total", delta(key("requests_rerouted_total"))},
			{"DeadlineMissed", er.DeadlineMissed, "deadline_misses_total", delta(key("deadline_misses_total"))},
			{"ScaleUps", er.ScaleUps, "scale_ups_total", delta(key("scale_ups_total"))},
			{"ScaleDowns", er.ScaleDowns, "scale_downs_total", delta(key("scale_downs_total"))},
			{"Reselections", er.Reselections, "reselections_total", delta(key("reselections_total"))},
		} {
			if c.got != c.want {
				t.Errorf("endpoint %s: report %s = %d, registry %s delta = %d",
					er.Name, c.field, c.got, c.series, c.want)
			}
		}
		if runs > 0 {
			if want := float64(delta(key("run_samples_total"))) / float64(runs); er.AvgRunSamples != want {
				t.Errorf("endpoint %s: AvgRunSamples = %v, registry says %v", er.Name, er.AvgRunSamples, want)
			}
			if want := float64(delta(key("run_requests_total"))) / float64(runs); er.AvgRunRequests != want {
				t.Errorf("endpoint %s: AvgRunRequests = %v, registry says %v", er.Name, er.AvgRunRequests, want)
			}
		}
		queries += delta(key("requests_total"))
		failed += delta(key("request_failures_total"))
	}
	if rep.Queries != queries || rep.Failed != failed {
		t.Errorf("report queries/failed = %d/%d, registry requests/failures = %d/%d",
			rep.Queries, rep.Failed, queries, failed)
	}
}

// countFixture is one replay scenario whose report counts the agreement
// test checks against the registry.
type countFixture struct {
	name  string
	build func(t *testing.T) *Service
	trace []workload.Query
	opts  ReplayOptions
	// exercised fails the test when the scenario did not drive the
	// counters it exists for, so the agreement is never vacuous.
	exercised func(t *testing.T, rep *Report)
}

func countFixtures() []countFixture {
	var burst []workload.Query
	for i := 0; i < 24; i++ {
		burst = append(burst, workload.Query{At: time.Duration(i) * time.Millisecond, Neurons: 128, Samples: 4})
	}
	var scaling []workload.Query
	for i := 0; i < 12; i++ {
		scaling = append(scaling, workload.Query{At: time.Duration(i) * 100 * time.Millisecond, Neurons: 128, Samples: 4})
	}
	for i := 1; i <= 4; i++ {
		scaling = append(scaling, workload.Query{At: time.Duration(i) * 3 * time.Minute, Neurons: 128, Samples: 4})
	}
	var replan []workload.Query
	add := func(at time.Duration) { replan = append(replan, workload.Query{At: at, Neurons: 256, Samples: 4}) }
	for i := 0; i < 4; i++ {
		add(time.Duration(i) * time.Minute)
	}
	for i := 0; i < 30; i++ {
		add(4*time.Minute + time.Duration(i)*100*time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		add(10*time.Minute + time.Duration(i)*5*time.Minute)
	}

	return []countFixture{{
		name: "shed-reroute",
		build: func(t *testing.T) *Service {
			m := testModel(t, 128, 3)
			svc, err := NewService(env.NewDefault(),
				WithEndpoint("a", m, WithEndpointAdmission(DeadlineAdmission(true))),
				WithEndpoint("b", m, WithEndpointAdmission(DeadlineAdmission(false))),
				WithCoalescing(4, 0),
			)
			if err != nil {
				t.Fatal(err)
			}
			return svc
		},
		trace: burst,
		opts: ReplayOptions{Seed: 5, Submit: func(i int, q workload.Query) SubmitOptions {
			if i%2 == 1 {
				return SubmitOptions{Deadline: 3 * time.Millisecond}
			}
			return SubmitOptions{Deadline: time.Second}
		}},
		exercised: func(t *testing.T, rep *Report) {
			a, b := rep.Endpoints[0], rep.Endpoints[1]
			if a.Rerouted == 0 || b.Shed == 0 {
				t.Errorf("rerouted %d / shed %d: want both non-zero", a.Rerouted, b.Shed)
			}
		},
	}, {
		name: "autoscale",
		build: func(t *testing.T) *Service {
			svc, err := NewService(env.NewDefault(),
				WithEndpoint("ep", testModel(t, 128, 3)),
				WithCoalescing(4, 0),
				WithScaling(Autoscaler(AutoscalerOptions{Min: 1, Max: 3, IdleGrace: time.Minute})),
			)
			if err != nil {
				t.Fatal(err)
			}
			return svc
		},
		trace: scaling,
		opts:  ReplayOptions{Seed: 7},
		exercised: func(t *testing.T, rep *Report) {
			if er := rep.Endpoints[0]; er.ScaleUps == 0 || er.ScaleDowns == 0 {
				t.Errorf("scale ups %d / downs %d: want both non-zero", er.ScaleUps, er.ScaleDowns)
			}
		},
	}, {
		name:  "chaos-monitor",
		build: func(t *testing.T) *Service { return monitoredTestService(t, monitorTestSpec()) },
		trace: workload.Day(40*6, []int{64, 128}, 6, 9),
		opts: ReplayOptions{
			Seed:  17,
			Chaos: []ChaosEvent{{At: time.Hour, Kind: KillNode, Endpoint: "mem128", Shard: 0}},
		},
		exercised: func(t *testing.T, rep *Report) {
			if rep.KVFailovers != 1 {
				t.Errorf("KV failovers = %d, want 1", rep.KVFailovers)
			}
		},
	}, {
		name: "replan",
		build: func(t *testing.T) *Service {
			svc, err := NewService(env.NewDefault(),
				WithEndpoint("slo", testModel(t, 256, 6), WithSLO(SLOOptions{
					LatencyWeight: 0,
					Channels:      []core.ChannelKind{core.Queue, core.Memory},
					Workers:       []int{2},
					ProbeBatch:    4,
					MinRuns:       2,
				})),
				WithCoalescing(4, 0),
			)
			if err != nil {
				t.Fatal(err)
			}
			return svc
		},
		trace: replan,
		opts:  ReplayOptions{Seed: 11},
		exercised: func(t *testing.T, rep *Report) {
			if er := rep.Endpoints[0]; er.Reselections == 0 || len(er.Replans) == 0 {
				t.Errorf("reselections %d / replans %d: want both non-zero", er.Reselections, len(er.Replans))
			}
		},
	}}
}

// TestReportCountsIdenticalToRegistryDeltas: the registry is the
// endpoints' only counter set, so every count a replay report carries
// must equal the matching counter's delta over that replay, under both
// replay modes, and two back-to-back replays on one service must each
// report only their own window.
func TestReportCountsIdenticalToRegistryDeltas(t *testing.T) {
	replay := func(t *testing.T, svc *Service, fx countFixture, stream bool) *Report {
		t.Helper()
		var rep *Report
		var err error
		if stream {
			rep, err = svc.ReplayStream(workload.Stream(fx.trace, 5), fx.opts)
		} else {
			rep, err = svc.Replay(fx.trace, fx.opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, fx := range countFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			for _, stream := range []bool{false, true} {
				svc := fx.build(t)
				before := counterValues(svc)
				rep := replay(t, svc, fx, stream)
				checkReportMatchesRegistry(t, rep, before, counterValues(svc))
				fx.exercised(t, rep)
			}

			svc := fx.build(t)
			c0 := counterValues(svc)
			first := replay(t, svc, fx, false)
			c1 := counterValues(svc)
			second := replay(t, svc, fx, true)
			c2 := counterValues(svc)
			checkReportMatchesRegistry(t, first, c0, c1)
			checkReportMatchesRegistry(t, second, c1, c2)
			if second.Queries != len(fx.trace) {
				t.Errorf("second replay reported %d queries, want its own %d", second.Queries, len(fx.trace))
			}
		})
	}
}

// TestStartFailureCountedOnce forces a run that fails to start — a
// request whose input has the wrong row count, admitted past Submit's
// validation — inside a replay window. The report's FailedRuns, the
// registry's run, request and failure counters and the handle's error
// must all agree that one run and one request failed.
func TestStartFailureCountedOnce(t *testing.T) {
	trace := []workload.Query{
		{At: 0, Neurons: 128, Samples: 4},
		{At: time.Minute, Neurons: 128, Samples: 4},
		{At: 2 * time.Minute, Neurons: 128, Samples: 4},
	}
	for _, stream := range []bool{false, true} {
		svc, err := NewService(env.NewDefault(),
			WithEndpoint("ep", testModel(t, 128, 3)),
			WithCoalescing(4, 0),
		)
		if err != nil {
			t.Fatal(err)
		}
		ep := svc.byName["ep"]
		bad := &Handle{svc: svc, endpoint: "ep"}
		opts := ReplayOptions{Seed: 3, Submit: func(i int, q workload.Query) SubmitOptions {
			if i == 0 {
				svc.pending[bad] = struct{}{}
				svc.env.K.At(30*time.Second, func() {
					ep.sched.admit(&request{h: bad, input: model.GenerateInputs(64, 4, 0.2, 1),
						arrived: svc.Now(), samples: 4})
				})
			}
			return SubmitOptions{}
		}}
		var rep *Report
		if stream {
			rep, err = svc.ReplayStream(workload.Stream(trace, 2), opts)
		} else {
			rep, err = svc.Replay(trace, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if bad.Err() == nil || !strings.Contains(bad.Err().Error(), "rows") {
			t.Errorf("stream=%v: start-failed handle error = %v, want the row-count error", stream, bad.Err())
		}
		if got := rep.Endpoints[0].FailedRuns; got != 1 {
			t.Errorf("stream=%v: report FailedRuns = %d, want 1", stream, got)
		}
		if rep.Queries != 3 || rep.Failed != 0 {
			t.Errorf("stream=%v: replayed queries/failed = %d/%d, want 3/0", stream, rep.Queries, rep.Failed)
		}
		c := counterValues(svc)
		for _, w := range []struct {
			key  string
			want int64
		}{
			{"run_failures_total{endpoint=ep}", 1},
			{"requests_total{endpoint=ep}", 4},
			{"request_failures_total{endpoint=ep}", 1},
		} {
			if c[w.key] != w.want {
				t.Errorf("stream=%v: %s = %d, want %d", stream, w.key, c[w.key], w.want)
			}
		}
	}
}
