package serve

import (
	"time"

	"fsdinference/internal/obs"
)

// latencyHist is the bounded log-linear histogram streaming replays fold
// per-request latencies into. The implementation lives in internal/obs
// (the metrics registry shares it), so the serving reports and the
// observability layer agree bucket for bucket on every percentile.
type latencyHist = obs.Histogram

// histStats renders a histogram as the report's LatencyStats. The
// percentiles are bucket upper bounds (see obs.Histogram); count, mean,
// min and max are exact.
func histStats(h *latencyHist) LatencyStats {
	n := h.Count()
	if n == 0 {
		return LatencyStats{}
	}
	return LatencyStats{
		Count: n,
		Mean:  h.Sum() / time.Duration(n),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(50),
		P95:   h.Quantile(95),
		P99:   h.Quantile(99),
	}
}

// latencies is one latency population: every sample in an exact fold,
// which Replay reports as exact nearest-rank percentiles, or a log-linear
// histogram (hist non-nil) in a bounded-memory streaming fold.
type latencies struct {
	samples []time.Duration
	hist    *latencyHist
}

func (l *latencies) observe(d time.Duration) {
	if l.hist != nil {
		l.hist.Observe(d)
		return
	}
	l.samples = append(l.samples, d)
}

func (l *latencies) stats() LatencyStats {
	if l.hist != nil {
		return histStats(l.hist)
	}
	return latencyStats(l.samples)
}
