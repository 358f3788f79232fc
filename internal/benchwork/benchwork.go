// Package benchwork defines the timed workloads of the repo's perf
// trajectory once. The root package's Benchmark functions and
// tools/benchguard both run them, so a BENCH point measures exactly what
// `go test -bench` measures.
package benchwork

import (
	"testing"
	"time"

	"fsdinference"
	"fsdinference/internal/core"
	"fsdinference/internal/serve"
)

// ReplayMode selects what rides along the serving replay.
type ReplayMode int

const (
	// Plain replays with tracing and monitoring off.
	Plain ReplayMode = iota
	// Traced turns the observability layer on at 1% sampling: span hooks
	// run on every request path, but only one request in a hundred
	// records spans.
	Traced
	// Monitored scrapes both endpoints every 5 simulated minutes into an
	// availability SLO under the default burn-rate rules: scrape events
	// on the kernel plus per-request metric increments.
	Monitored
)

// ServiceReplay drives a small sporadic day through the serving layer —
// admission, coalescing, replica dispatch and the shared-kernel async
// engine path — once per iteration on a fresh service, and returns the
// last replay's report. Traced and Monitored differ from Plain only by
// the named option, so their ns/op over Plain's is that layer's price.
func ServiceReplay(b *testing.B, mode ReplayMode) *fsdinference.ServiceReport {
	opts := []fsdinference.ServiceOption{
		fsdinference.WithEndpoint("small", model(b, 128, 6)),
		fsdinference.WithEndpoint("large", model(b, 256, 6)),
		fsdinference.WithCoalescing(64, 200*time.Millisecond),
		fsdinference.WithReplicas(2),
	}
	switch mode {
	case Traced:
		opts = append(opts, fsdinference.WithTracing(100))
	case Monitored:
		opts = append(opts, fsdinference.WithMonitor(fsdinference.MonitorSpec{
			Interval: 5 * time.Minute,
			SLOs: []fsdinference.SLO{{
				Name: "availability", Kind: fsdinference.Availability,
				Window: 30 * 24 * time.Hour, Objective: 0.999,
			}},
		}))
	}
	trace := fsdinference.WorkloadDay(40*8, []int{128, 256}, 8, 7)
	var rep *fsdinference.ServiceReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := fsdinference.NewService(fsdinference.NewEnv(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		rep, err = svc.Replay(trace, fsdinference.ReplayOptions{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 {
			b.Fatalf("%d failed queries", rep.Failed)
		}
		if mode == Traced && len(svc.Tracer().Spans()) == 0 {
			b.Fatal("tracing produced no spans")
		}
		if mode == Monitored && len(svc.Monitor().Series("small")) == 0 {
			b.Fatal("monitoring produced no series")
		}
	}
	return rep
}

// MillionQueryReplay streams a one-million-query diurnal day through a
// live endpoint end-to-end — streaming trace generation, admission,
// coalescing, batched inference, incremental report folding — in bounded
// memory, and reports sustained queries/sec.
func MillionQueryReplay(b *testing.B) {
	m := model(b, 64, 2)
	const total = 1_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Payload compression is the data plane's cost, measured by the
		// compression ablation; switching it off here keeps the number on
		// the replay engine itself (scheduling, coalescing, dispatch,
		// folding) rather than on zlib throughput.
		svc, err := fsdinference.NewService(fsdinference.NewEnv(),
			fsdinference.WithEndpoint("m64", m,
				serve.WithDeployOverride(func(c *core.Config) { c.Compress = false })),
			fsdinference.WithCoalescing(4096, 5*time.Minute),
		)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := svc.ReplayStream(
			fsdinference.DiurnalDay(total, []int{64}, 1, 7, 8192),
			fsdinference.ReplayOptions{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Queries != total || rep.Failed != 0 {
			b.Fatalf("replayed %d queries, %d failed", rep.Queries, rep.Failed)
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// ClusterChannel runs one inference over the sharded, replicated
// memory-store cluster — slot routing, async replication and per-shard
// limiters all on the hot path.
func ClusterChannel(b *testing.B) {
	m := model(b, 256, 6)
	infer(b, fsdinference.Config{
		Model: m, Plan: plan(b, m, 4, fsdinference.Block), Channel: fsdinference.Memory,
		KVNodes: 2, KVReplicas: 1,
	}, 16)
}

// EngineQueueRun runs one inference on the paper's queue channel.
func EngineQueueRun(b *testing.B) {
	m := model(b, 256, 6)
	infer(b, fsdinference.Config{
		Model: m, Plan: plan(b, m, 4, fsdinference.Block), Channel: fsdinference.Queue,
	}, 16)
}

// Allreduce runs one inference whose closing reduce is a true allreduce
// at P=32 on the memory channel. The flat root frames the combined result
// once per target; the tree amortises that over ceil(log2 P) rounds.
func Allreduce(b *testing.B, alg fsdinference.CollectiveAlgorithm) {
	m := model(b, 256, 6)
	infer(b, fsdinference.Config{
		Model: m, Plan: plan(b, m, 32, fsdinference.Block), Channel: fsdinference.Memory,
		Collective: alg, AllreduceOutput: true, Compress: true,
	}, 16)
}

// HybridChannel runs one inference over the size-aware hybrid channel
// with a threshold low enough that both paths run hot: control values
// ride the in-memory store, bulk values chunk into object storage behind
// inline pointers with pipelined fetch.
func HybridChannel(b *testing.B) {
	m := model(b, 256, 6)
	res := infer(b, fsdinference.Config{
		Model: m, Plan: plan(b, m, 8, fsdinference.HGPDNN), Channel: fsdinference.Hybrid,
		HybridThresholdBytes: 2 << 10,
	}, 64)
	if res.Usage.HybridBulkValues == 0 || res.Usage.HybridSmallValues == 0 {
		b.Fatalf("hybrid split not exercised: %d small / %d bulk",
			res.Usage.HybridSmallValues, res.Usage.HybridBulkValues)
	}
}

// infer deploys cfg on a fresh environment and runs one inference over a
// samples-wide input per iteration, returning the last result.
func infer(b *testing.B, cfg fsdinference.Config, samples int) *fsdinference.Result {
	input := fsdinference.GenerateInputs(cfg.Model.Spec.Neurons, samples, 0.2, 2)
	var res *fsdinference.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fsdinference.Deploy(fsdinference.NewEnv(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res, err = d.Infer(input); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func model(b *testing.B, neurons, layers int) *fsdinference.Model {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func plan(b *testing.B, m *fsdinference.Model, workers int, s fsdinference.PartitionScheme) *fsdinference.Plan {
	p, err := fsdinference.BuildPlan(m, workers, s, fsdinference.PartitionOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return p
}
