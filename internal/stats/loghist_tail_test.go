package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile returns the q-quantile of sorted samples under the same
// rank convention Quantile targets (rank q·n, 1-indexed, clamped).
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailDistributions generates heavy-tailed deterministic sample sets:
// the regimes where P99/P99.9/P99.99 live in sparsely populated buckets
// and estimation error is at its worst.
func tailDistributions(r *rand.Rand, n int, min, max float64) map[string][]float64 {
	out := map[string][]float64{}
	// Log-uniform: every bucket equally loaded.
	out["loguniform"] = logSamples(r, n, min, max)
	// Lognormal latency shape: tight body, long tail.
	ln := make([]float64, n)
	med := min * math.Sqrt(max/min) / 50
	for i := range ln {
		v := med * math.Exp(r.NormFloat64()*1.2)
		if v < min {
			v = min
		}
		if v >= max {
			v = max * (1 - 1e-12)
		}
		ln[i] = v
	}
	out["lognormal"] = ln
	// Bimodal retransmission shape: a dominant fast mode plus a
	// geometric cascade of delayed modes, like CAN error recovery.
	bi := make([]float64, n)
	base, step := min*40, min*47
	for i := range bi {
		v := base + base*0.02*r.Float64()
		for r.Float64() < 0.03 {
			v += step
		}
		if v >= max {
			v = max * (1 - 1e-12)
		}
		bi[i] = v
	}
	out["bimodal"] = bi
	return out
}

// TestLogHistogramTailQuantileRankError: the estimate of the P99,
// P99.9 and P99.99 tail quantiles must stay within one Growth() factor
// of the exact sample quantile — the documented worst-case relative
// error — across heavy-tailed shapes and resolutions.
func TestLogHistogramTailQuantileRankError(t *testing.T) {
	r := rand.New(rand.NewSource(1701))
	const n = 200000
	const min, max = 1.0, 5e4
	for _, buckets := range []int{30, 50, 96} {
		for name, samples := range tailDistributions(r, n, min, max) {
			h := NewLogHistogram("tail", min, max, buckets)
			for _, v := range samples {
				h.Observe(v)
			}
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)
			g := h.Growth()
			if want := math.Pow(max/min, 1/float64(buckets)); math.Abs(g-want) > 1e-9 {
				t.Fatalf("%s/%d: growth %v, want %v", name, buckets, g, want)
			}
			for _, q := range []float64{0.99, 0.999, 0.9999} {
				est := h.Quantile(q)
				exact := exactQuantile(sorted, q)
				if est < exact/g || est > exact*g {
					t.Errorf("%s buckets=%d q=%v: estimate %v outside [%v, %v] (exact %v, growth %v)",
						name, buckets, q, est, exact/g, exact*g, exact, g)
				}
			}
		}
	}
}

// TestLogHistogramTailOverflowAttribution: tail quantiles whose rank
// falls into overflow mass must clamp to max, never invent a value
// beyond the tracked range.
func TestLogHistogramTailOverflowAttribution(t *testing.T) {
	h := NewLogHistogram("over", 1, 1000, 20)
	for i := 0; i < 990; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5000) // overflow
	}
	if got := h.Quantile(0.9999); got != h.max {
		t.Fatalf("overflow-rank quantile %v, want max %v", got, h.max)
	}
	if under, over := h.OutOfRange(); under != 0 || over != 10 {
		t.Fatalf("out of range (%d, %d), want (0, 10)", under, over)
	}
}
