package main

import (
	"sort"
	"time"

	fsd "fsdinference"
	"fsdinference/internal/obs"
)

// stageSelf folds a tracer's finished spans into simulated self time per
// span name: each span's duration minus the part of its interval that
// its child spans cover (overlapping children count once).
func stageSelf(spans []fsd.TraceSpan) map[string]time.Duration {
	kids := make(map[obs.SpanID][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	self := map[string]time.Duration{}
	var ivs [][2]time.Duration
	for _, sp := range spans {
		ivs = ivs[:0]
		for _, k := range kids[sp.ID] {
			s, e := spans[k].Start, spans[k].End
			if s < sp.Start {
				s = sp.Start
			}
			if e > sp.End {
				e = sp.End
			}
			if e > s {
				ivs = append(ivs, [2]time.Duration{s, e})
			}
		}
		self[sp.Name] += sp.End - sp.Start - covered(ivs)
	}
	return self
}

// covered returns the length of the union of intervals; it sorts ivs.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end time.Duration
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// stageMetrics reports stage.<name>.self_ms per sampled request for every
// stage name; the sampled requests are the tracer's "request" spans.
func stageMetrics(spans []fsd.TraceSpan) map[string]float64 {
	requests := 0
	for _, sp := range spans {
		if sp.Name == "request" {
			requests++
		}
	}
	self := stageSelf(spans)
	out := make(map[string]float64, len(stageNames))
	for _, name := range stageNames {
		out["stage."+name+".self_ms"] = ratio(ms(int64(self[name])), float64(requests))
	}
	return out
}
