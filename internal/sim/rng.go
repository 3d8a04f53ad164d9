package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** by Blackman & Vigna). The standard library's math/rand is
// avoided deliberately: its global state and historical source changes make
// cross-version reproducibility fragile, and simulation results in this
// repository must be identical for a given seed forever.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed non-zero internal state even for small seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// modulo bias is negligible for the n values used by the models.
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n) as an int64. It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, for Poisson arrival processes. The result is at least 1 ns so that
// arrival sequences always make progress.
func (r *RNG) ExpDuration(mean Duration) Duration {
	if mean <= 0 {
		return 1
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	d := Duration(-float64(mean) * math.Log(u))
	if d < 1 {
		d = 1
	}
	return d
}

// Jitter returns a uniform duration in [-spread, +spread].
func (r *RNG) Jitter(spread Duration) Duration {
	if spread <= 0 {
		return 0
	}
	return Duration(r.Int63n(int64(2*spread+1))) - spread
}
