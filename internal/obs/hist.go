package obs

import (
	"fmt"
	"math/bits"
	"time"
)

// Histogram folds durations into a bounded log-linear histogram so a
// streaming replay can report percentiles over a million-query day
// without retaining a million samples. Each power-of-two decade is split
// into linear sub-buckets (histSub by default, configurable via
// NewHistogram), so a reported percentile is the upper edge of a bucket
// at most 1/sub of its decade wide — within ~6% of the exact
// nearest-rank value at the default resolution, deterministically.
// Count, sum, min and max are exact.
//
// This is the serving layer's latency histogram (it began life in
// internal/serve); the serving reports and the metrics registry share
// the one implementation so their percentiles agree bucket for bucket.
type Histogram struct {
	count    int
	sum      time.Duration
	min, max time.Duration
	// sub is the linear sub-bucket count per decade; the zero value
	// means histSub, so a zero Histogram is ready to use.
	sub     int
	lo, hi  int // nonzero bucket index bounds, valid when count > 0
	buckets [64 * histSub]int
}

const histSub = 16

// NewHistogram returns a histogram with sub linear sub-buckets per
// power-of-two decade. sub must be a power of two in [1, 16]; coarser
// resolutions trade percentile precision for cheaper delta scans. The
// zero Histogram value is equivalent to NewHistogram(16).
func NewHistogram(sub int) *Histogram {
	if sub <= 0 || sub > histSub || sub&(sub-1) != 0 {
		panic(fmt.Sprintf("obs: NewHistogram: sub-bucket count %d is not a power of two in [1, %d]", sub, histSub))
	}
	return &Histogram{sub: sub}
}

// subdiv resolves the configured geometry; 0 (the zero value) means the
// default histSub resolution.
func (h *Histogram) subdiv() int {
	if h.sub == 0 {
		return histSub
	}
	return h.sub
}

// bucketOf maps a duration to its bucket index under a sub-buckets-per-
// decade geometry.
func bucketOf(d time.Duration, sub int) int {
	v := uint64(d)
	if d <= 0 {
		return 0
	}
	e := bits.Len64(v)                // v in [2^(e-1), 2^e)
	sb := bits.Len64(uint64(sub)) - 1 // log2(sub)
	if e <= sb {
		// The first decades are narrower than sub; index linearly.
		return int(v)
	}
	s := (v - 1<<(e-1)) >> (uint(e - 1 - sb)) // sub linear sub-buckets
	return e*sub + int(s)
}

// upperBound returns the largest duration a bucket can hold — the value
// a percentile falling in that bucket reports.
func upperBound(idx, sub int) time.Duration {
	if idx < sub {
		return time.Duration(idx)
	}
	sb := bits.Len64(uint64(sub)) - 1
	e := idx / sub
	s := idx % sub
	width := uint64(1) << uint(e-1-sb)
	return time.Duration(uint64(1)<<(e-1) + uint64(s+1)*width - 1)
}

// Observe folds one duration into the histogram.
func (h *Histogram) Observe(d time.Duration) {
	idx := bucketOf(d, h.subdiv())
	if h.count == 0 {
		h.min, h.lo, h.hi = d, idx, idx
	} else {
		if d < h.min {
			h.min = d
		}
		if idx < h.lo {
			h.lo = idx
		}
		if idx > h.hi {
			h.hi = idx
		}
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[idx]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return h.count }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Min returns the exact minimum observation (0 when empty).
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the exact maximum observation (0 when empty).
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the nearest-rank p-th percentile's bucket upper
// bound, clamped to the exact observed maximum.
func (h *Histogram) Quantile(p int) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := (p*h.count + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	sub := h.subdiv()
	seen := 0
	for i := h.lo; i <= h.hi; i++ {
		seen += h.buckets[i]
		if seen >= rank {
			ub := upperBound(i, sub)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// CountAtMost returns the number of observations in buckets whose upper
// bound is at most d. The answer is bucket-granular — observations that
// share d's bucket but exceed it are excluded along with the rest of the
// bucket — which keeps windowed SLO good/bad splits deterministic across
// replay modes. Passing a bucket upper bound (e.g. a Quantile result)
// counts that bucket in full.
func (h *Histogram) CountAtMost(d time.Duration) int {
	if h.count == 0 || d < 0 {
		return 0
	}
	sub := h.subdiv()
	lim := bucketOf(d, sub)
	if upperBound(lim, sub) > d {
		lim--
	}
	if lim > h.hi {
		lim = h.hi
	}
	n := 0
	for i := h.lo; i <= lim; i++ {
		n += h.buckets[i]
	}
	return n
}

// Delta returns the histogram of observations recorded since prev, an
// earlier snapshot (plain struct copy) of the same histogram. Count and
// sum are exact differences; min and max are bucket-derived (the lowest
// and highest nonzero delta bucket's upper bound) so that windowed
// percentiles depend only on bucket contents. Panics if the geometries
// differ, rather than reading counts from the wrong decades.
func (h *Histogram) Delta(prev *Histogram) Histogram {
	if prev == nil || prev.count == 0 {
		return *h
	}
	if h.subdiv() != prev.subdiv() {
		panic(fmt.Sprintf("obs: Histogram.Delta: mismatched bucket geometry (%d vs %d sub-buckets per decade)", h.subdiv(), prev.subdiv()))
	}
	d := Histogram{sub: h.sub, count: h.count - prev.count, sum: h.sum - prev.sum}
	if d.count <= 0 {
		return Histogram{sub: h.sub}
	}
	first := true
	for i := h.lo; i <= h.hi; i++ {
		c := h.buckets[i]
		if i >= prev.lo && i <= prev.hi {
			c -= prev.buckets[i]
		}
		if c == 0 {
			continue
		}
		d.buckets[i] = c
		if first {
			d.lo, first = i, false
		}
		d.hi = i
	}
	sub := h.subdiv()
	d.min = upperBound(d.lo, sub)
	d.max = upperBound(d.hi, sub)
	return d
}
