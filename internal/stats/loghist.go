package stats

import "math"

// LogHistogram aggregates samples into geometrically growing buckets
// (HDR style). Every bucket spans the same multiplicative factor
// ("growth"), so the quantile estimate carries a bounded *relative*
// error of at most one growth factor regardless of where in the range
// the mass lands — the right shape for latency and jitter, where a
// 10 µs error matters at 50 µs but not at 50 ms.
type LogHistogram struct {
	name     string
	min, max float64
	growth   float64
	invLnG   float64
	bounds   []float64 // exclusive upper bound per bucket; bounds[last] == max
	counts   []uint64
	under    uint64
	over     uint64
	n        uint64
	sum      float64
}

// NewLogHistogram creates a histogram over [min, max) with the given
// number of geometric buckets: bucket i covers
// [min·g^i, min·g^(i+1)) where g = (max/min)^(1/buckets). min must be
// positive; non-positive or inverted parameters are clamped to a sane
// default rather than panicking.
func NewLogHistogram(name string, min, max float64, buckets int) *LogHistogram {
	if buckets < 1 {
		buckets = 1
	}
	if min <= 0 {
		min = 1
	}
	if max <= min {
		max = min * 2
	}
	g := math.Pow(max/min, 1/float64(buckets))
	h := &LogHistogram{
		name:   name,
		min:    min,
		max:    max,
		growth: g,
		invLnG: 1 / math.Log(g),
		bounds: make([]float64, buckets),
		counts: make([]uint64, buckets),
	}
	for i := range h.bounds {
		h.bounds[i] = min * math.Pow(g, float64(i+1))
	}
	h.bounds[buckets-1] = max // pin the top bound exactly despite float drift
	return h
}

func (h *LogHistogram) lowerBound(i int) float64 {
	if i == 0 {
		return h.min
	}
	return h.bounds[i-1]
}

// Observe records one sample. Samples below min land in the underflow
// counter (attributed to min by Quantile), samples at or above max in
// the overflow counter.
func (h *LogHistogram) Observe(v float64) {
	h.n++
	h.sum += v
	switch {
	case v < h.min:
		h.under++
	case v >= h.max:
		h.over++
	default:
		i := int(math.Log(v/h.min) * h.invLnG)
		if i < 0 {
			i = 0
		}
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		// Float drift in the log can land one bucket off; nudge so the
		// invariant lowerBound(i) <= v < bounds[i] holds exactly.
		for i+1 < len(h.counts) && v >= h.bounds[i] {
			i++
		}
		for i > 0 && v < h.lowerBound(i) {
			i--
		}
		h.counts[i]++
	}
}

// N returns the total number of samples (including out-of-range).
func (h *LogHistogram) N() uint64 { return h.n }

// Sum returns the sum of all observed samples (including out-of-range).
func (h *LogHistogram) Sum() float64 { return h.sum }

// Buckets returns the number of geometric buckets.
func (h *LogHistogram) Buckets() int { return len(h.counts) }

// Bucket returns the count of bucket i.
func (h *LogHistogram) Bucket(i int) uint64 { return h.counts[i] }

// UpperBound returns the exclusive upper bound of bucket i.
func (h *LogHistogram) UpperBound(i int) float64 { return h.bounds[i] }

// OutOfRange returns the underflow and overflow counts.
func (h *LogHistogram) OutOfRange() (under, over uint64) { return h.under, h.over }

// Growth returns the per-bucket multiplicative factor — the worst-case
// relative error of a Quantile estimate for in-range mass.
func (h *LogHistogram) Growth() float64 { return h.growth }

// Quantile estimates the q-quantile by geometric interpolation within
// the containing bucket, matching the buckets' multiplicative spacing.
// Underflow mass is attributed to min, overflow mass to max.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	cum := float64(h.under)
	if target <= cum {
		return h.min
	}
	for i, c := range h.counts {
		next := cum + float64(c)
		if target <= next && c > 0 {
			lo := h.lowerBound(i)
			frac := (target - cum) / float64(c)
			return lo * math.Pow(h.bounds[i]/lo, frac)
		}
		cum = next
	}
	return h.max
}

// Clone returns an independent copy of h.
func (h *LogHistogram) Clone() *LogHistogram {
	c := *h
	c.bounds = append([]float64(nil), h.bounds...)
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}
