package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// logSamples draws n samples log-uniformly across [min, max) so every
// bucket of a log histogram sees comparable mass.
func logSamples(r *rand.Rand, n int, min, max float64) []float64 {
	out := make([]float64, n)
	span := math.Log(max / min)
	for i := range out {
		out[i] = min * math.Exp(r.Float64()*span)
		if out[i] >= max {
			out[i] = max * (1 - 1e-12)
		}
	}
	return out
}

// TestLogHistogramBucketInvariant checks that every observed in-range
// sample lands in the bucket whose [lower, upper) span contains it,
// including values exactly on bucket boundaries.
func TestLogHistogramBucketInvariant(t *testing.T) {
	h := NewLogHistogram("inv", 1, 1e6, 30)
	for i := 0; i < h.Buckets(); i++ {
		lo := h.lowerBound(i)
		hi := h.UpperBound(i)
		before := h.Bucket(i)
		h.Observe(lo) // boundary value belongs to bucket i, not i-1
		mid := math.Sqrt(lo * hi)
		h.Observe(mid)
		if got := h.Bucket(i) - before; got != 2 {
			t.Fatalf("bucket %d [%g,%g): got %d new samples, want 2", i, lo, hi, got)
		}
	}
	under0, over0 := h.OutOfRange()
	h.Observe(0.5)
	h.Observe(1e6) // max itself is out of range (exclusive)
	under, over := h.OutOfRange()
	if under != under0+1 || over != over0+1 {
		t.Fatalf("out of range = (%d,%d), want (%d,%d)", under, over, under0+1, over0+1)
	}
}

// TestLogHistogramQuantileRankError checks the advertised accuracy
// bound: for in-range mass, the quantile estimate is within two growth
// factors of the exact sample quantile (the estimate and the true value
// can straddle adjacent buckets at rank boundaries, each bucket
// spanning one growth factor).
func TestLogHistogramQuantileRankError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 50000
	samples := logSamples(r, n, 1, 1e6)
	h := NewLogHistogram("err", 1, 1e6, 60)
	for _, v := range samples {
		h.Observe(v)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	bound := h.Growth() * h.Growth() * (1 + 1e-9)
	for _, q := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		rank := int(math.Ceil(q*float64(n))) - 1
		if rank < 0 {
			rank = 0
		}
		exact := sorted[rank]
		est := h.Quantile(q)
		ratio := est / exact
		if ratio < 1/bound || ratio > bound {
			t.Errorf("q=%.3f: estimate %g vs exact %g (ratio %.4f, bound %.4f)",
				q, est, exact, ratio, bound)
		}
	}
}

// TestLogHistogramQuantileMonotone checks quantiles are non-decreasing
// in q, including across under/overflow mass.
func TestLogHistogramQuantileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	h := NewLogHistogram("mono", 1, 1e4, 24)
	for _, v := range logSamples(r, 5000, 1, 1e4) {
		h.Observe(v)
	}
	for i := 0; i < 100; i++ { // out-of-range mass at both edges
		h.Observe(0.1)
		h.Observe(1e5)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.0005 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%.4f gives %g after %g", q, v, prev)
		}
		prev = v
	}
	if got := h.Quantile(0.0); got != h.min {
		t.Fatalf("q=0 with underflow mass: got %g, want min %g", got, h.min)
	}
	if got := h.Quantile(1.0); got != h.max {
		t.Fatalf("q=1 with overflow mass: got %g, want max %g", got, h.max)
	}
}

func TestLogHistogramEmptyAndClone(t *testing.T) {
	h := NewLogHistogram("e", 1, 100, 10)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(10)
	c := h.Clone()
	c.Observe(20)
	if h.N() != 1 || c.N() != 2 {
		t.Fatalf("clone not independent: h.N=%d c.N=%d", h.N(), c.N())
	}
}
