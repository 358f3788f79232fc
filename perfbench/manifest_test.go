package main

import (
	"encoding/json"
	"os"
	"testing"

	fsd "fsdinference"
)

// manifest is the part of BENCHMARK.json the benchmark's code must agree
// with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s (%s), code %s (%s)", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	pl := perLayer()
	if len(m.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(m.PerLayer), len(pl))
	}
	for i, e := range m.PerLayer {
		if e.Name != pl[i].name || e.Unit != pl[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), code %s (%s)", i, e.Name, e.Unit, pl[i].name, pl[i].unit)
		}
	}
}

// TestEveryMetricEmitted runs a tiny channel-day (eight queries) through
// every child mode in-process and checks that both result lines carry
// every metric BENCHMARK.json declares, with its unit, and pass the gate.
func TestEveryMetricEmitted(t *testing.T) {
	w := *channelDay()
	w.trace = func(seed int64) []fsd.Query { return wholeDay(8, 256, 4, seed) }
	child := func(mode string) *childResult {
		c, err := runChild(&w, 3, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return c
	}
	verified, timed, traced := child(modeVerify), child(modeTimed), child(modeTraced)

	m := readManifest(t)
	check := func(res *result, declared map[string]string) {
		t.Helper()
		if !res.Correct {
			t.Fatalf("gate failed: %v", res.problems)
		}
		line, err := res.marshal()
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted < 1 {
			t.Errorf("correct %v, attempted %d", out.Correct, out.Attempted)
		}
		for name, unit := range declared {
			got, ok := out.Metrics[name]
			if !ok || got.Value == nil {
				t.Errorf("metric %s not emitted", name)
			} else if got.Unit != unit {
				t.Errorf("metric %s: unit %q, declared %q", name, got.Unit, unit)
			}
		}
		if len(out.Metrics) != len(declared) {
			t.Errorf("emitted %d metrics, declared %d", len(out.Metrics), len(declared))
		}
	}
	e2e := map[string]string{}
	for _, d := range m.EndToEnd {
		e2e[d.Name] = d.Unit
	}
	check(summarizeEndToEnd(&w, verified, []*childResult{timed}), e2e)
	layers := map[string]string{}
	for _, d := range m.PerLayer {
		layers[d.Name] = d.Unit
	}
	check(summarizeTraced(&w, verified, []*childResult{timed}, []*childResult{traced}), layers)
}
