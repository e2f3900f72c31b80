// Package data provides the workloads of the paper's evaluation (§4.1):
// synthetic key traces under uniform and Zipfian distributions, and
// synthetic stand-ins for the six real-world datasets of Table 2 with the
// published shape parameters (feature counts, ID-space sizes, skew).
package data

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// KeyGen produces embedding keys from some distribution over [0, n).
type KeyGen interface {
	Next() uint64
}

// Uniform draws keys uniformly from [0, n).
type Uniform struct {
	rng *rand.Rand
	n   uint64
}

// NewUniform builds a uniform generator over [0, n).
func NewUniform(seed int64, n uint64) *Uniform {
	if n == 0 {
		panic("data: uniform key space must be non-empty")
	}
	return &Uniform{rng: rand.New(rand.NewSource(seed)), n: n}
}

// Next returns the next key.
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

// Zipf draws keys from a Zipfian distribution with exponent theta ∈ (0, 1)
// over [0, n) — the skew regime of the paper's microbenchmarks (0.9 and
// 0.99), which the standard library's rand.Zipf (s > 1) cannot produce.
// The implementation follows the Gray et al. quantile approximation used
// by YCSB. Rank 0 is the hottest key; use NewScrambledZipf to spread hot
// keys across the key space.
type Zipf struct {
	rng               *rand.Rand
	n                 uint64
	theta             float64
	alpha, zetan, eta float64
	scramble          bool
}

// NewZipf builds a Zipfian generator with exponent theta over [0, n).
func NewZipf(seed int64, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("data: zipf key space must be non-empty")
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("data: zipf theta must be in (0,1), got %v", theta))
	}
	z := &Zipf{rng: rand.New(rand.NewSource(seed)), n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// NewScrambledZipf is NewZipf with hot ranks scrambled over the key space,
// so that the hottest keys do not cluster at the low end (matching how hot
// IDs are spread in real tables, and keeping cache shards balanced).
func NewScrambledZipf(seed int64, n uint64, theta float64) *Zipf {
	z := NewZipf(seed, n, theta)
	z.scramble = true
	return z
}

// zetaCache memoises zeta values: experiment sweeps build many generators
// over the same (large) key spaces.
var zetaCache sync.Map // [2]float64{n, theta} → float64

// zeta computes the generalised harmonic number H_{n,theta}. For the key
// spaces of the paper (≤ 10⁹) the direct sum is computed once per
// (n, theta) pair; beyond 10⁷ terms the tail is integral-approximated.
func zeta(n uint64, theta float64) float64 {
	key := [2]float64{float64(n), theta}
	if v, ok := zetaCache.Load(key); ok {
		return v.(float64)
	}
	v := zetaDirect(n, theta)
	zetaCache.Store(key, v)
	return v
}

func zetaDirect(n uint64, theta float64) float64 {
	const direct = 10_000_000
	var sum float64
	limit := n
	if limit > direct {
		limit = direct
	}
	for i := uint64(1); i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > limit {
		// ∫ x^-θ dx from `limit` to n approximates the remaining tail.
		a := 1 - theta
		sum += (math.Pow(float64(n), a) - math.Pow(float64(limit), a)) / a
	}
	return sum
}

// Next returns the next key.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	if !z.scramble {
		return rank
	}
	// Mix rank into the key space with an invertible hash.
	h := rank
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h % z.n
}

// Distribution names a key distribution of the microbenchmark (Fig 8).
type Distribution string

// The three microbenchmark distributions of Exp #1.
const (
	DistUniform Distribution = "uniform"
	DistZipf09  Distribution = "zipf-0.9"
	DistZipf099 Distribution = "zipf-0.99"
)

// NewGen builds the generator for a named distribution.
func NewGen(d Distribution, seed int64, n uint64) (KeyGen, error) {
	switch d {
	case DistUniform:
		return NewUniform(seed, n), nil
	case DistZipf09:
		return NewScrambledZipf(seed, n, 0.9), nil
	case DistZipf099:
		return NewScrambledZipf(seed, n, 0.99), nil
	default:
		return nil, fmt.Errorf("data: unknown distribution %q", d)
	}
}

// Distributions returns the Exp #1 sweep order.
func Distributions() []Distribution {
	return []Distribution{DistUniform, DistZipf09, DistZipf099}
}
