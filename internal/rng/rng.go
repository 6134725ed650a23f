// Package rng provides the deterministic random number generation used
// throughout the simulator.
//
// Simulation results must be reproducible for a fixed seed across runs and
// platforms, so the package implements its own xoshiro256** generator seeded
// by splitmix64 rather than relying on math/rand's unspecified stream
// evolution. On top of the raw generator it layers the samplers the
// simulator needs: uniform, exponential, Poisson, Gaussian, Zipf, and an
// alias-method sampler for drawing from large discrete distributions in
// O(1) per draw (used by the PEBS model).
package rng

import "math"

// splitmix64 expands a 64-bit seed into the xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash statelessly maps (seed, a, b) to 64 uniform bits. Unlike a Source it
// has no stream position: the result depends only on the inputs, so the
// value is the same whenever and in whatever order it is evaluated — the
// foundation of the engine's deferred, order-independent fault-gap draws.
func Hash(seed, a, b uint64) uint64 {
	return mix(mix(mix(seed+0x9e3779b97f4a7c15)^a*0xbf58476d1ce4e5b9) ^ b*0x94d049bb133111eb)
}

// HashFloat64 returns a uniform float64 in [0, 1) statelessly derived from
// (seed, a, b), with the same 53-bit construction as Source.Float64.
func HashFloat64(seed, a, b uint64) float64 {
	return float64(Hash(seed, a, b)>>11) / (1 << 53)
}

// HashExp returns an exponentially distributed variate with the given rate
// (mean 1/rate), statelessly derived from (seed, a, b). Rate must be
// positive.
func HashExp(seed, a, b uint64, rate float64) float64 {
	if rate <= 0 {
		panic("rng: HashExp with non-positive rate")
	}
	u := HashFloat64(seed, a, b)
	return -math.Log(1-u) / rate
}

// Source is a deterministic xoshiro256** PRNG. It is not safe for concurrent
// use; the simulator is single-threaded per run by design.
type Source struct {
	s [4]uint64
	// cached second normal variate from the Box-Muller pair
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	r := &Source{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A pathological all-zero state cannot occur: splitmix64 outputs are
	// never all zero for any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Fork derives an independent child stream. Deriving with distinct labels
// yields decorrelated streams, letting subsystems (workload, PEBS, policy
// noise) consume randomness without perturbing each other.
func (r *Source) Fork(label uint64) *Source {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
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

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate). Rate must be positive.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0): Float64 is in [0,1), so 1-u is in (0,1].
	return -math.Log(1-u) / rate
}

// Gauss returns a normally distributed variate with the given mean and
// standard deviation, via Box-Muller.
func (r *Source) Gauss(mean, stddev float64) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return mean + stddev*r.gauss
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
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return mean + stddev*u*f
}

// Poisson returns a Poisson-distributed count with the given mean. For large
// means it uses a Gaussian approximation, which is accurate (and fast) in
// the regime the simulator uses it (per-epoch access counts).
func (r *Source) Poisson(mean float64) int64 {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		// Knuth's product method.
		l := math.Exp(-mean)
		var k int64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		g := r.Gauss(mean, math.Sqrt(mean))
		if g < 0 {
			return 0
		}
		return int64(g + 0.5)
	}
}

// Zipf draws integers in [0, n) following a Zipf distribution with exponent
// s > 0. It uses the rejection-inversion method of Hörmann and Derflinger,
// valid for s != 1 as well as s == 1 (harmonic).
type Zipf struct {
	r                *Source
	n                int64
	s                float64
	oneMinusS        float64
	hIntegralX1      float64
	hIntegralNumElem float64
	sDiv             float64
}

// NewZipf constructs a Zipf sampler over [0, n) with skew s (s > 0, s != 1
// supported; s == 1 handled by a nearby value).
func NewZipf(r *Source, n int64, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s <= 0 {
		panic("rng: Zipf with non-positive s")
	}
	if s == 1 {
		s = 1 + 1e-9
	}
	z := &Zipf{r: r, n: n, s: s, oneMinusS: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNumElem = z.hIntegral(float64(n) + 0.5)
	z.sDiv = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next returns the next Zipf variate in [0, n).
func (z *Zipf) Next() int64 {
	for {
		u := z.hIntegralNumElem + z.r.Float64()*(z.hIntegralX1-z.hIntegralNumElem)
		x := z.hIntegralInverse(u)
		k := int64(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if float64(k)-x <= z.sDiv || u >= z.hIntegral(float64(k)+0.5)-z.h(float64(k)) {
			return k - 1
		}
	}
}

// Alias is a Walker alias-method sampler over a fixed discrete weight
// vector, yielding O(1) draws after O(n) construction. The PEBS model uses
// it to draw millions of address samples from page-weight distributions.
type Alias struct {
	r     *Source
	prob  []float64
	alias []int32
	// Build scratch, retained across Rebuild calls so refreshing the table
	// with a same-sized distribution allocates nothing once warm.
	scaled []float64
	small  []int32
	large  []int32
}

// NewAlias builds an alias table from the (unnormalized, non-negative)
// weights. A nil or all-zero weight vector panics.
func NewAlias(r *Source, weights []float64) *Alias {
	a := &Alias{r: r}
	a.Rebuild(weights)
	return a
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Rebuild replaces the table's distribution in place, reusing the existing
// backing arrays when capacity allows. The resulting table is identical to
// what NewAlias would build from the same weights.
func (a *Alias) Rebuild(weights []float64) {
	n := len(weights)
	if n == 0 {
		panic("rng: Alias with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Alias with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Alias with zero total weight")
	}
	a.prob = growF64(a.prob, n)
	a.alias = growI32(a.alias, n)
	scaled := growF64(a.scaled, n)
	small := a.small[:0]
	large := a.large[:0]
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] - (1 - scaled[s])
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		a.prob[l] = 1
	}
	for _, s := range small {
		a.prob[s] = 1
	}
	a.scaled = scaled
	a.small = small[:0]
	a.large = large[:0]
}

// Next draws one index following the weight distribution.
func (a *Alias) Next() int {
	i := a.r.Intn(len(a.prob))
	if a.r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Len returns the number of categories in the table.
func (a *Alias) Len() int { return len(a.prob) }
