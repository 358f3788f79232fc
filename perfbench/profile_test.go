package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"

	fsd "fsdinference"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fsdinference/internal/cloud/s3.(*Bucket).List":          "cloud.s3",
		"fsdinference/internal/obs/monitor.(*Monitor).scrape":    "obs.monitor",
		"fsdinference/internal/obs.(*Tracer).Start":              "obs",
		"fsdinference/internal/serve.(*Service).Replay.func1":    "serve",
		"fsdinference/internal/sim.(*Kernel).run[...]":           "sim",
		"fsdinference/internal/cloud/env.New":                    "other",
		"fsdinference.GenerateModel":                             "other",
		"main.runChild":                                          "other",
		"runtime.memmove":                                        "",
		"strings.HasPrefix":                                      "",
		"fsdinferencex/internal/sim.Run":                         "",
		"fsdinference/internal/sparse.(*CSR).MulDense.gowrap1":   "sparse",
		"fsdinference/internal/collective.tree[go.shape.int].Do": "collective",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributionSumsToTotal profiles real work in this process and
// checks that the layer buckets partition the profile's CPU time.
func TestAttributionSumsToTotal(t *testing.T) {
	m, err := fsd.GenerateModel(fsd.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	in := fsd.GenerateInputs(256, 32, 0.2, 1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sw := startWatch()
	for sw.seconds() < 0.3 {
		fsd.Reference(m, in)
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("profile recorded no samples")
	}
	buckets, total := p.attribute()
	sum := 0.0
	for _, v := range buckets {
		sum += v
	}
	if total <= 0 || math.Abs(sum-total) > 1e-9*total {
		t.Fatalf("buckets sum to %v, profile total %v", sum, total)
	}
	declared := map[string]bool{}
	for _, l := range cpuLayers {
		declared[l] = true
	}
	for l := range buckets {
		if !declared[l] {
			t.Errorf("bucket %q is not a declared layer", l)
		}
	}
	if buckets["model"]+buckets["sparse"] <= 0 {
		t.Errorf("no CPU charged to model or sparse: %v", buckets)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip input")
	}
}
