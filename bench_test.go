package fsdinference_test

import (
	"os"
	"sync"
	"testing"

	"fsdinference"
	"fsdinference/internal/benchwork"
	"fsdinference/internal/experiments"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
)

// benchScale picks the experiment grid: quick by default, the full default
// grid with FSD_BENCH_SCALE=default.
func benchScale() experiments.Scale {
	if os.Getenv("FSD_BENCH_SCALE") == "default" {
		return experiments.DefaultScale()
	}
	return experiments.QuickScale()
}

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func sharedLab() *experiments.Lab {
	benchLabOnce.Do(func() { benchLab = experiments.NewLab(benchScale()) })
	return benchLab
}

// benchExperiment runs one table/figure regenerator per iteration and logs
// its rendering once, so `go test -bench .` both regenerates and displays
// every paper artifact.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	lab := sharedLab()
	r, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var out *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := r.Run(lab)
		if err != nil {
			b.Fatal(err)
		}
		out = t
	}
	b.Log("\n" + out.String())
}

// One benchmark per paper table and figure (§VI).

func BenchmarkFig4DailyCost(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5QueryLatency(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6Scaling(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkChannelComparison(b *testing.B)  { benchExperiment(b, "channels") }
func BenchmarkClusterScaling(b *testing.B)     { benchExperiment(b, "cluster") }
func BenchmarkPlannerSelection(b *testing.B)   { benchExperiment(b, "planner") }
func BenchmarkTable2PerSample(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable3Partitioning(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkCostValidation(b *testing.B)     { benchExperiment(b, "costval") }

// Ablations the paper references without showing.

func BenchmarkAblationPolling(b *testing.B)     { benchExperiment(b, "polling") }
func BenchmarkAblationLaunch(b *testing.B)      { benchExperiment(b, "launch") }
func BenchmarkAblationCompression(b *testing.B) { benchExperiment(b, "compression") }
func BenchmarkAblationQuota(b *testing.B)       { benchExperiment(b, "quota") }

// Component micro-benchmarks.

func BenchmarkSparseMulGather(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(1024, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	w := m.Layers[0]
	x := model.GenerateInputs(1024, 64, 0.2, 2)
	z := sparse.NewDense(w.Rows, 64)
	lookup := func(c int32) []float32 {
		if x.RowIsZero(int(c)) {
			return nil
		}
		return x.Row(int(c))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Zero()
		sparse.MulGatherInto(w, lookup, z)
	}
}

func BenchmarkWireEncodeChunksCompressed(b *testing.B) {
	rs := wire.NewRowSet(64)
	row := make([]float32, 64)
	for i := range row {
		if i%3 == 0 {
			row[i] = float32(i)
		}
	}
	for r := 0; r < 512; r++ {
		rs.Add(int32(r), row)
	}
	b.SetBytes(rs.RawBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeChunks(rs, 240*1024, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHypergraphPartition(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(512, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.BuildPlan(m, 8, partition.HGPDNN, partition.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimKernelEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.New()
		c := sim.NewCond(k)
		for p := 0; p < 16; p++ {
			k.Go("w", func(p *sim.Proc) {
				for j := 0; j < 100; j++ {
					p.Sleep(1)
				}
				c.Broadcast()
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// The perf-trajectory workloads live in internal/benchwork, shared with
// tools/benchguard, which records each as a BENCH point series and gates
// it: ns/op may rise at most 25% against the latest committed point, the
// million-query replay may not fall 25% nor below 100k queries/sec, and
// within one point the traced and monitored replays may cost at most 15%
// and 10% over the plain one.

func BenchmarkServiceReplay(b *testing.B)          { benchwork.ServiceReplay(b, benchwork.Plain) }
func BenchmarkServiceReplayTraced(b *testing.B)    { benchwork.ServiceReplay(b, benchwork.Traced) }
func BenchmarkServiceReplayMonitored(b *testing.B) { benchwork.ServiceReplay(b, benchwork.Monitored) }
func BenchmarkMillionQueryReplay(b *testing.B)     { benchwork.MillionQueryReplay(b) }
func BenchmarkClusterChannel(b *testing.B)         { benchwork.ClusterChannel(b) }
func BenchmarkEngineQueueRun(b *testing.B)         { benchwork.EngineQueueRun(b) }
func BenchmarkHybridChannel(b *testing.B)          { benchwork.HybridChannel(b) }

func BenchmarkAllreduce(b *testing.B) {
	b.Run("flat", func(b *testing.B) { benchwork.Allreduce(b, fsdinference.FlatCollective) })
	b.Run("tree", func(b *testing.B) { benchwork.Allreduce(b, fsdinference.TreeCollective) })
}

// BenchmarkPlanner measures one full Plan/Replan cycle of the
// workload-aware planner: analytic pre-filter, probe trials for the
// surviving candidates, then a re-plan under a sustained profile that
// must re-score cached measurements rather than re-simulate.
func BenchmarkPlanner(b *testing.B) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := fsdinference.NewPlanner(m, fsdinference.PlannerOptions{
			Objective: fsdinference.CostObjective(),
			Grid: fsdinference.PlannerGrid{
				Channels: []fsdinference.ChannelKind{fsdinference.Queue, fsdinference.Memory},
				Workers:  []int{2},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		d, err := p.Plan(fsdinference.WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8})
		if err != nil {
			b.Fatal(err)
		}
		d2, err := p.Replan(fsdinference.WorkloadProfile{QueriesPerDay: 200_000, BatchSamples: 8})
		if err != nil {
			b.Fatal(err)
		}
		if d.Best.Channel == d2.Best.Channel {
			b.Fatalf("replan did not flip the channel: %v", d.Best.Channel)
		}
	}
}
