package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64 core) with the distribution helpers the simulator needs.
// We do not use math/rand so that the stream is stable across Go
// releases: experiment outputs (cmd/experiments; README's "Parallel
// deterministic experiment engine") must be reproducible bit-for-bit
// from a seed.
type RNG struct {
	state uint64
	// Spare normal deviate from the Box–Muller pair.
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator from the current state.
// Subsystems (channel model, cross-traffic, sources, ...) each fork
// their own stream so that adding draws in one subsystem does not
// perturb another.
func (r *RNG) Fork() *RNG {
	// Mix a distinct constant so the child stream differs from the
	// parent continuation.
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly distributed bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box–Muller, with the spare deviate cached).
func (r *RNG) Normal(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mean + stddev*u*m
}

// Exponential returns an exponentially distributed value with the given
// mean (i.e. rate 1/mean).
func (r *RNG) Exponential(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a bounded Pareto-distributed value with shape alpha
// and minimum xm. Heavy-tailed draws model cross-traffic burst sizes
// and frame-size outliers.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac],
// a convenience for spreading otherwise-synchronized timers.
func (r *RNG) Jitter(d Time, frac float64) Time {
	return Time(float64(d) * r.Uniform(1-frac, 1+frac))
}
