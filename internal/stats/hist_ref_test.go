package stats

import (
	"math"
	"sort"
	"strconv"
	"testing"

	"optanestudy/internal/sim"
)

// refHistogram is the Histogram the dense layout replaced, kept as the
// reference model: bucket counts in a map, bucketed through Log2 and
// Exp2, and quantiles answered by sorting the map's keys.
type refHistogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  map[int32]int64
}

func newRefHistogram() *refHistogram {
	return &refHistogram{min: math.Inf(1), max: math.Inf(-1), buckets: map[int32]int64{}}
}

// refBucketOf is the old bucketing. NaN and +Inf go to the ≤ 0 bucket, as
// the old code's float-to-int conversions put them on amd64; spelling it
// out keeps the reference the same on every architecture.
func refBucketOf(v float64) int32 {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 1) {
		return math.MinInt32
	}
	exp := math.Floor(math.Log2(v))
	frac := v/math.Exp2(exp) - 1 // in [0, 1)
	sub := int32(frac * (1 << histSubBits))
	if sub >= 1<<histSubBits {
		sub = 1<<histSubBits - 1
	}
	return int32(exp)<<histSubBits + sub
}

func (h *refHistogram) add(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[refBucketOf(v)]++
}

func (h *refHistogram) merge(o *refHistogram) {
	if o.count == 0 {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for k, c := range o.buckets {
		h.buckets[k] += c
	}
}

func (h *refHistogram) quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	if h.count == 0 {
		return out
	}
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return qs[order[i]] < qs[order[j]] })
	keys := make([]int32, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ki, next := 0, 0
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
		for seen < rank && ki < len(keys) {
			seen += h.buckets[keys[ki]]
			next = ki
			ki++
		}
		if seen < rank {
			out[oi] = h.max
			continue
		}
		out[oi] = min(max(bucketLow(keys[next]), h.min), h.max)
	}
	return out
}

// refQuantiles are the quantiles the differential tests ask for: the
// extremes, the reporters' rows, and ranks that land in sparse tails.
var refQuantiles = []float64{0, 1e-9, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999, 1 - 1e-9, 1}

// same reports whether two float64s are the same value, NaN included.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkHistogram fails unless h and r agree on every summary and on
// every quantile.
func checkHistogram(t *testing.T, what string, h *Histogram, r *refHistogram) {
	t.Helper()
	if h.Count() != r.count {
		t.Fatalf("%s: count %d, reference %d", what, h.Count(), r.count)
	}
	var mean, lo, hi float64
	if r.count > 0 {
		mean, lo, hi = r.sum/float64(r.count), r.min, r.max
	}
	if !same(h.Mean(), mean) || !same(h.Min(), lo) || !same(h.Max(), hi) {
		t.Fatalf("%s: mean/min/max %v/%v/%v, reference %v/%v/%v", what, h.Mean(), h.Min(), h.Max(), mean, lo, hi)
	}
	got, want := h.Quantiles(refQuantiles), r.quantiles(refQuantiles)
	for i, q := range refQuantiles {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: q%g = %v, reference %v", what, q, got[i], want[i])
		}
	}
}

// histValue maps a selector to a sample: one of the special values the
// ≤ 0 bucket collects, or a picosecond count's nanoseconds, the values a
// sim.Time produces.
func histValue(kind int, ps int64) float64 {
	switch kind {
	case 0:
		return 0
	case 1:
		return -float64(ps) / 1000
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	}
	return sim.Time(ps).Nanoseconds()
}

// histOp adds a sample to one of two histograms, or merges the second
// into the first.
type histOp struct {
	merge bool
	into  int // which histogram Add feeds
	v     float64
}

// checkHistogramsAgainstReference replays ops on two histogram pairs,
// comparing each pair after every op.
func checkHistogramsAgainstReference(t *testing.T, ops []histOp) {
	t.Helper()
	hs := [2]*Histogram{NewHistogram(), NewHistogram()}
	rs := [2]*refHistogram{newRefHistogram(), newRefHistogram()}
	for i, op := range ops {
		if op.merge {
			hs[0].Merge(hs[1])
			rs[0].merge(rs[1])
		} else {
			hs[op.into].Add(op.v)
			rs[op.into].add(op.v)
		}
		for j := range hs {
			checkHistogram(t, "op "+strconv.Itoa(i), hs[j], rs[j])
		}
	}
}

// The dense histogram matches the reference after Add and Merge, over
// sim.Time samples spanning microseconds to hours mixed with 0,
// negatives, NaN and ±Inf.
func TestHistogramMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		ops := make([]histOp, 1000)
		for i := range ops {
			kind := 5
			if rng.Bool(0.05) {
				kind = rng.Intn(5)
			}
			// Log-uniform picosecond counts up to 2^42 (about 73 minutes).
			ps := rng.Int63n(1 << uint(1+rng.Intn(42)))
			ops[i] = histOp{merge: rng.Bool(0.01), into: rng.Intn(2), v: histValue(kind, ps)}
		}
		checkHistogramsAgainstReference(t, ops)
	}
}

func FuzzHistogramMatchesReference(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 0, 0, 0, 1, 1, 5, 0xff, 0xff, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x12, 5, 1, 2, 3, 4, 5, 6, 0x03, 5, 9, 9, 9, 9, 9, 9, 0x80, 0, 0, 0, 0, 0, 0, 0})
	// Each 8-byte group is one op: a header byte (top bit: merge; bit 6:
	// which histogram; low bits: value kind) and a 56-bit picosecond
	// count, kept below 2^50 ps.
	f.Fuzz(func(t *testing.T, b []byte) {
		var ops []histOp
		for ; len(b) >= 8; b = b[8:] {
			var ps int64
			for _, c := range b[1:8] {
				ps = ps<<8 | int64(c)
			}
			ops = append(ops, histOp{
				merge: b[0]&0x80 != 0,
				into:  int(b[0]>>6) & 1,
				v:     histValue(int(b[0]&0x3f)%6, ps&(1<<50-1)),
			})
		}
		checkHistogramsAgainstReference(t, ops)
	})
}

// bucketOf puts every value a sim.Time produces where the Log2/Exp2
// bucketing did: every picosecond count below 2^26, every count within
// 2000 ps of a power of two up to 2^61 ps, and random counts below
// 2^50 ps. (Over arbitrary float64s the two differ within a few ulps
// below a power of two, where Log2 rounds up to the next exponent:
// math.MaxFloat64 is one such value.)
func TestBucketOfMatchesReference(t *testing.T) {
	limit := int64(1) << 26
	if testing.Short() {
		limit = 1 << 20
	}
	// The dense range is most of the work, so its quarters run in
	// parallel.
	t.Run("dense", func(t *testing.T) {
		for q := range int64(4) {
			t.Run(strconv.FormatInt(q, 10), func(t *testing.T) {
				t.Parallel()
				for ps := q * limit / 4; ps < (q+1)*limit/4; ps++ {
					checkBucket(t, ps)
				}
			})
		}
	})
	for k := 11; k <= 61; k++ {
		for d := int64(-2000); d <= 2000; d++ {
			checkBucket(t, 1<<k+d)
		}
	}
	rng := sim.NewRNG(1)
	for range 1 << 20 {
		checkBucket(t, rng.Int63n(1<<50))
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64} {
		if got, want := bucketOf(v), refBucketOf(v); got != want {
			t.Fatalf("%v: bucket %d, reference %d", v, got, want)
		}
	}
}

func checkBucket(t *testing.T, ps int64) {
	if v := sim.Time(ps).Nanoseconds(); bucketOf(v) != refBucketOf(v) {
		t.Fatalf("%d ps: bucket %d, reference %d", ps, bucketOf(v), refBucketOf(v))
	}
}
