package workload

import (
	"math"

	"optanestudy/internal/sim"
)

// Zipf generates Zipfian-distributed integers in [0, n) with skew theta,
// using the Gray et al. (SIGMOD '94) rejection-free method popularized by
// YCSB. Item 0 is the most popular.
type Zipf struct {
	rng   *sim.RNG
	n     int64
	alpha float64
	zetan float64
	eta   float64
	item1 float64 // 1 + 0.5^theta: a scaled draw below it (and at least 1) is item 1
}

// NewZipf returns a Zipfian generator over [0, n). theta in (0, 1);
// 0.99 matches the YCSB default.
func NewZipf(n int64, theta float64, seed uint64) *Zipf {
	if n <= 0 || theta <= 0 || theta >= 1 {
		panic("workload: bad zipf parameters")
	}
	z := &Zipf{rng: sim.NewRNG(seed), n: n}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.item1 = 1 + math.Pow(0.5, theta)
	return z
}

func zeta(n int64, theta float64) float64 {
	// Exact for small n; for large n use the integral approximation to keep
	// construction O(1) for multi-million key spaces.
	if n <= 10000 {
		var sum float64
		for i := int64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	return zeta(10000, theta) +
		(math.Pow(float64(n), 1-theta)-math.Pow(10000, 1-theta))/(1-theta)
}

// Next returns the next Zipfian sample.
func (z *Zipf) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.item1 {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
