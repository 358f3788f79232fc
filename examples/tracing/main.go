// Tracing: watch where simulated time goes. A multi-worker service
// replays a sporadic day with the observability layer on (every request
// sampled), then exports a Perfetto-loadable Chrome trace and prints the
// flame summary and metrics registry.
//
// The trace has one track per replica ("n256/r0"), per worker under it
// ("n256/r0/w1") and per KV shard ("n256/r0/kv/s0" when the memory
// channel is sharded): requests render as async envelopes spanning
// submit to completion with their coalesce/queue phases nested inside,
// runs as async envelopes on the replica that executed them, and worker
// load/layer/send/recv phases as duration slices. Load trace.json into
// https://ui.perfetto.dev to explore it.
//
// Everything is simulated time: the same trace at the same seed and
// sampling rate produces a byte-identical trace.json on every run — and
// on both replay modes (Replay, ReplayStream).
package main

import (
	"fmt"
	"log"
	"os"

	"fsdinference"
)

func main() {
	const batch = 32
	sizes := []int{256, 512}

	models := map[int]*fsdinference.Model{}
	for _, n := range sizes {
		m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(n, 12, 1))
		if err != nil {
			log.Fatal(err)
		}
		models[n] = m
	}

	// One serial endpoint and one distributed endpoint (4 workers on the
	// memory channel), so the trace shows both request-level serving
	// phases and engine-level worker/channel activity.
	svc, err := fsdinference.NewService(fsdinference.NewEnv(),
		fsdinference.WithEndpoint("n256", models[256]),
		fsdinference.WithEndpoint("n512", models[512],
			fsdinference.WithChannel(fsdinference.Memory),
			fsdinference.WithWorkers(4)),
		fsdinference.WithCoalescing(4*batch, 0),
		fsdinference.WithReplicas(2),
		fsdinference.WithTracing(1), // sample every request
	)
	if err != nil {
		log.Fatal(err)
	}

	day := fsdinference.WorkloadDay(100*batch, sizes, batch, 7)
	rep, err := svc.Replay(day, fsdinference.ReplayOptions{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)

	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := svc.Tracer().WriteChrome(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote trace.json — open in https://ui.perfetto.dev")

	fmt.Println("\nflame summary (simulated time by span):")
	svc.Tracer().WriteFlame(os.Stdout)

	fmt.Println("\nmetrics registry:")
	svc.Metrics().WriteText(os.Stdout)
}
