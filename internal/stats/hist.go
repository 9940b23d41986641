// Package stats provides the statistics used throughout the study:
// latency histograms with tail percentiles, summary statistics, least-squares
// regression (for the EWR/bandwidth correlation), and tabular series for
// regenerating the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram records latency-like samples with high-resolution log-linear
// buckets, supporting accurate tail percentiles without storing every
// sample. Values are arbitrary non-negative float64s (we use nanoseconds).
//
// Bucketing: values are grouped by (exponent, 1/64 mantissa slice), giving a
// worst-case relative error of ~1.6% per bucket — plenty for p99.999 work.
// Exact minimum and maximum are tracked separately.
//
// The counts sit in one dense slice from the lowest bucket seen to the
// highest, which grows as samples arrive outside it, plus a separate count
// for the bucket of values ≤ 0 (NaN and +Inf land there too).
type Histogram struct {
	count  int64
	sum    float64
	min    float64
	max    float64
	zero   int64   // samples in zeroBucket
	lo     int32   // bucket of counts[0]
	counts []int64 // counts[i] is the sample count of bucket lo+i
}

const histSubBits = 6 // 64 sub-buckets per power of two

// zeroBucket holds every sample ≤ 0, NaN and +Inf; it sorts below every
// other bucket and its lower bound is 0.
const zeroBucket = math.MinInt32

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// bucketOf returns v's bucket: its binary exponent, then the top
// histSubBits bits of its mantissa.
func bucketOf(v float64) int32 {
	if !(v > 0 && v <= math.MaxFloat64) {
		return zeroBucket
	}
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac in [0.5, 1)
	return int32(exp-1)<<histSubBits + int32((2*frac-1)*(1<<histSubBits))
}

func bucketLow(b int32) float64 {
	if b == zeroBucket {
		return 0
	}
	exp := b >> histSubBits
	sub := b & (1<<histSubBits - 1)
	return math.Exp2(float64(exp)) * (1 + float64(sub)/(1<<histSubBits))
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	b := bucketOf(v)
	if b == zeroBucket {
		h.zero++
		return
	}
	i := int(b - h.lo)
	if uint(i) >= uint(len(h.counts)) {
		i = h.slot(b)
	}
	h.counts[i]++
}

// slot returns bucket b's position in counts, widening the dense range to
// take it.
func (h *Histogram) slot(b int32) int {
	switch {
	case len(h.counts) == 0:
		h.counts, h.lo = append(h.counts, 0), b
	case b < h.lo:
		grown := make([]int64, int(h.lo-b)+len(h.counts))
		copy(grown[h.lo-b:], h.counts)
		h.counts, h.lo = grown, b
	case int(b-h.lo) >= len(h.counts):
		h.counts = append(h.counts, make([]int64, int(b-h.lo)+1-len(h.counts))...)
	}
	return int(b - h.lo)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the value at quantile q in [0, 1]. Within a bucket the
// lower bound is returned; the exact min/max are used at the extremes.
func (h *Histogram) Percentile(q float64) float64 {
	return h.Quantiles([]float64{q})[0]
}

// Quantiles returns the values at each quantile in qs (each in [0, 1], any
// order), in one pass over the buckets — cheaper than repeated Percentile
// calls, and what reporters use for p50/p95/p99/p99.9 rows. The result is
// parallel to qs.
func (h *Histogram) Quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	if h.count == 0 {
		return out
	}
	// Order the requested quantiles so one bucket walk answers all of them.
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return qs[order[i]] < qs[order[j]] })

	// Walk the buckets in order: zeroBucket, then the dense range. next
	// is the bucket whose count took seen to the last rank.
	ki, next := -1, int32(zeroBucket)
	var seen int64
	for _, oi := range order {
		q := qs[oi]
		switch {
		case q <= 0:
			out[oi] = h.min
			continue
		case q >= 1:
			out[oi] = h.max
			continue
		}
		rank := int64(math.Ceil(q * float64(h.count)))
		for seen < rank && ki < len(h.counts) {
			if ki < 0 {
				seen += h.zero
			} else {
				seen += h.counts[ki]
				next = h.lo + int32(ki)
			}
			ki++
		}
		if seen < rank {
			out[oi] = h.max
			continue
		}
		v := bucketLow(next)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		out[oi] = v
	}
	return out
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.zero += other.zero
	if n := len(other.counts); n > 0 {
		h.slot(other.lo)
		h.slot(other.lo + int32(n) - 1)
		off := int(other.lo - h.lo)
		for i, c := range other.counts {
			h.counts[off+i] += c
		}
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f p99.99=%.1f max=%.1f",
		h.count, h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.Percentile(0.9999), h.Max())
}
