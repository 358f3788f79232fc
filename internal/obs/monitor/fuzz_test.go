package monitor

import (
	"testing"
	"time"
)

// FuzzParseSLO feeds arbitrary -slo flag values to ParseSLO: none may
// panic, and every spec it accepts either fails New or carries an
// objective strictly inside (0, 1) — an SLO that New accepts always has
// a finite error budget and can fire.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{
		"latency:p99<=250ms@0.99,endpoint=n512,window=720h",
		"availability@0.999",
		"latency:p95<=2s@0.99,endpoint=n128,window=24h",
		"latency:p99<=250ms@0.99,endpoint=large,name=big,window=720h",
		"availability@NaN",
		"latency:p99<=250ms@NaN",
	} {
		f.Add(s)
	}
	clock := func() time.Duration { return 0 }
	sched := func(time.Duration, func()) {}
	f.Fuzz(func(t *testing.T, s string) {
		slo, err := ParseSLO(s)
		if err != nil {
			return
		}
		if _, err := New(Spec{SLOs: []SLO{slo}}, clock, sched, nil); err != nil {
			return
		}
		if !(slo.Objective > 0 && slo.Objective < 1) {
			t.Fatalf("ParseSLO(%q) and New accepted objective %v outside (0, 1)", s, slo.Objective)
		}
	})
}
