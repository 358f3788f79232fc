package main

import (
	"fmt"
	"math/rand"
	"time"

	fsd "fsdinference"
)

// A workload is one traffic mix: how to build its Service (the timed
// set-up) and the trace it replays as an open loop in simulated time.
// Every request carries the workload's latency limit as a relative
// SubmitOptions.Deadline; under FIFO admission that only counts misses,
// it never sheds.
type workload struct {
	name  string
	limit time.Duration
	// sampleEvery is the traced run's 1-in-N request sampling rate.
	sampleEvery int
	// options builds the models and plan and returns the Service's
	// options.
	options func(tm timings) ([]fsd.ServiceOption, error)
	// trace generates the workload's queries from the seed.
	trace func(seed int64) []fsd.Query
	// route, when set, returns a fresh ReplayOptions.Route for one replay.
	route func() func(fsd.Query) (string, bool)
}

// timings collects the host wall time of public calls made during one
// child run, keyed by per-layer metric name.
type timings map[string]float64

// timeCall runs f and charges its wall time to the named timing.
func (tm timings) timeCall(name string, f func() error) error {
	sw := startWatch()
	err := f()
	tm[name] += sw.seconds()
	return err
}

// generate builds the seed's trace, timed as workload.generate_s.
func (w *workload) generate(seed int64, tm timings) []fsd.Query {
	var qs []fsd.Query
	_ = tm.timeCall("workload.generate_s", func() error { qs = w.trace(seed); return nil })
	return qs
}

// replayOptions gives the seed to input generation and attaches the
// latency limit; verify checks every output against serial reference
// inference.
func (w *workload) replayOptions(seed int64, verify bool) fsd.ReplayOptions {
	opts := fsd.ReplayOptions{
		Seed:   seed,
		Verify: verify,
		Submit: func(int, fsd.Query) fsd.SubmitOptions { return fsd.SubmitOptions{Deadline: w.limit} },
	}
	if w.route != nil {
		opts.Route = w.route()
	}
	return opts
}

// verify is the correctness gate, run in a fresh process: a new service
// replays the same trace with every output checked against serial
// reference inference. It returns that replay's Report.String, which must
// be byte-identical to the timed replay's.
func (w *workload) verify(seed int64, tm timings) (string, error) {
	svc, err := w.setup(false, tm)
	if err != nil {
		return "", err
	}
	qs := w.generate(seed, tm)
	var rep *fsd.ServiceReport
	if err := tm.timeCall("model.reference_s", func() (err error) {
		rep, err = svc.Replay(qs, w.replayOptions(seed, true))
		return err
	}); err != nil {
		return "", err
	}
	return rep.String(), nil
}

var workloads = []*workload{diurnal(), channelDay(), flashCrowd()}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generateModel times model generation.
func generateModel(tm timings, neurons, layers int) (*fsd.Model, error) {
	var m *fsd.Model
	err := tm.timeCall("model.generate_s", func() (err error) {
		m, err = fsd.GenerateModel(fsd.GraphChallengeSpec(neurons, layers, 1))
		return err
	})
	return m, err
}

// setup is the timed set-up: models, partition plan and Service, whose
// construction includes any planner probe trials its endpoints run.
// traced turns on WithTracing.
func (w *workload) setup(traced bool, tm timings) (*fsd.Service, error) {
	opts, err := w.options(tm)
	if err != nil {
		return nil, err
	}
	if traced {
		opts = append(opts, fsd.WithTracing(w.sampleEvery))
	}
	var svc *fsd.Service
	err = tm.timeCall("serve.new_service_s", func() (err error) {
		svc, err = fsd.NewService(fsd.NewEnv(), opts...)
		return err
	})
	return svc, err
}

// wholeDay generates a diurnal day of single-size queries as one slice.
func wholeDay(total, neurons, samples int, seed int64) []fsd.Query {
	// With the batch size equal to the total, the first batch is the day.
	return fsd.DiurnalDay(total, []int{neurons}, samples, seed, total).Next()
}

// ---- diurnal: the replay engine's throughput case ----

const diurnalQueries = 250_000

func diurnal() *workload {
	w := &workload{name: "diurnal-250k", limit: 5 * time.Minute, sampleEvery: 1000}
	w.options = func(tm timings) ([]fsd.ServiceOption, error) {
		m, err := generateModel(tm, 64, 2)
		if err != nil {
			return nil, err
		}
		// Compression is the data plane's concern; this workload measures
		// the replay engine, so the endpoint ships raw payloads.
		return []fsd.ServiceOption{
			fsd.WithEndpoint("m64", m, fsd.WithDeployOverride(func(c *fsd.Config) { c.Compress = false })),
			fsd.WithCoalescing(4096, 5*time.Minute),
		}, nil
	}
	w.trace = func(seed int64) []fsd.Query { return wholeDay(diurnalQueries, 64, 1, seed) }
	return w
}

// ---- channel-day: the paper's channel comparison, sporadic regime ----

// channelEndpoints are channel-day's endpoints in registration order;
// queries go round-robin over them by trace index.
var channelEndpoints = []struct {
	name string
	kind fsd.ChannelKind
}{
	{"queue", fsd.Queue},
	{"object", fsd.Object},
	{"memory", fsd.Memory},
	{"hybrid", fsd.Hybrid},
}

const (
	channelQueries = 1000
	channelWorkers = 4
	// hybridThreshold is low enough that the hybrid endpoint splits its
	// traffic between the store and object storage; at the 128 KiB
	// default every value stays inline and it behaves exactly like
	// memory.
	hybridThreshold = 256
)

func channelDay() *workload {
	// The limit sits in the gap between warm requests (done by 1.1s) and
	// cold ones (2.1s and up), so it counts the requests that paid a cold
	// start; at 4s no request of this day misses.
	w := &workload{name: "channel-day", limit: 2 * time.Second, sampleEvery: 1}
	w.options = func(tm timings) ([]fsd.ServiceOption, error) {
		m, err := generateModel(tm, 256, 6)
		if err != nil {
			return nil, err
		}
		var p *fsd.Plan
		if err := tm.timeCall("partition.build_plan_s", func() (err error) {
			p, err = fsd.BuildPlan(m, channelWorkers, fsd.HGPDNN, fsd.PartitionOptions{Seed: 1})
			return err
		}); err != nil {
			return nil, err
		}
		var opts []fsd.ServiceOption
		for _, ep := range channelEndpoints {
			eo := []fsd.EndpointOption{fsd.WithChannel(ep.kind), fsd.WithPlan(p)}
			if ep.kind == fsd.Hybrid {
				eo = append(eo, fsd.WithDeployOverride(func(c *fsd.Config) { c.HybridThresholdBytes = hybridThreshold }))
			}
			opts = append(opts, fsd.WithEndpoint(ep.name, m, eo...))
		}
		return opts, nil
	}
	// A diurnal day rather than uniform arrivals: each minute gets its
	// share of the day's queries, so the number of idle gaps long enough
	// to cool an endpoint down — and with it the cold-start count — is a
	// property of the workload, not of the seed.
	w.trace = func(seed int64) []fsd.Query { return wholeDay(channelQueries, 256, 4, seed) }
	w.route = func() func(fsd.Query) (string, bool) {
		// Replay routes the trace in order, so the counter is the query's
		// trace index.
		next := 0
		return func(fsd.Query) (string, bool) {
			name := channelEndpoints[next%len(channelEndpoints)].name
			next++
			return name, true
		}
	}
	return w
}

// ---- flash-crowd: overload, burn-rate alerts and re-planning ----

const (
	flashCycles = 4
	flashCycle  = 45 * time.Minute
	flashSLO    = "lat-p95"
)

// flashTrace repeats the slomonitor experiment's crowd shape: per
// 45-minute cycle, 20 quiet queries 30s apart, a four-minute crowd of
// 300 queries 800ms apart, and a quiet tail of 60 queries 30s apart from
// 14m30s. Each arrival is delayed by a seeded fraction (under a quarter)
// of its phase's spacing, which keeps the order and the shape.
func flashTrace(seed int64) []fsd.Query {
	rng := rand.New(rand.NewSource(seed))
	var qs []fsd.Query
	add := func(at, spacing time.Duration) {
		jitter := time.Duration(rng.Float64() * float64(spacing) / 4)
		qs = append(qs, fsd.Query{At: at + jitter, Neurons: 256, Samples: 4})
	}
	for c := 0; c < flashCycles; c++ {
		base := time.Duration(c) * flashCycle
		for i := 0; i < 20; i++ {
			add(base+time.Duration(i)*30*time.Second, 30*time.Second)
		}
		for i := 0; i < 300; i++ {
			add(base+10*time.Minute+time.Duration(i)*800*time.Millisecond, 800*time.Millisecond)
		}
		for i := 0; i < 60; i++ {
			add(base+14*time.Minute+30*time.Second+time.Duration(i)*30*time.Second, 30*time.Second)
		}
	}
	return qs
}

func flashCrowd() *workload {
	w := &workload{name: "flash-crowd", limit: 4 * time.Second, sampleEvery: 1}
	w.options = func(tm timings) ([]fsd.ServiceOption, error) {
		m, err := generateModel(tm, 256, 6)
		if err != nil {
			return nil, err
		}
		spec := fsd.MonitorSpec{
			Interval: 15 * time.Second,
			SLOs: []fsd.SLO{{
				Name: flashSLO, Endpoint: "slo", Kind: fsd.LatencyQuantile,
				Target: w.limit, Window: 24 * time.Hour, Objective: 0.99,
			}},
		}
		return []fsd.ServiceOption{
			// The slomonitor experiment's SLO endpoint: the quiet phase
			// picks the cheap queue channel, the crowd saturates it.
			fsd.WithEndpoint("slo", m, fsd.WithSLO(fsd.SLOOptions{
				LatencyWeight: 0,
				Channels:      []fsd.ChannelKind{fsd.Queue, fsd.Memory},
				Workers:       []int{2},
				ProbeBatch:    4,
				MinRuns:       64,
			})),
			fsd.WithCoalescing(4, 0),
			fsd.WithMonitor(spec),
		}, nil
	}
	w.trace = flashTrace
	return w
}
