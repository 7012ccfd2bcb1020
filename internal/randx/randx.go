// Package randx is the randomness substrate for the data-integration
// simulator and the Monte-Carlo estimator: publicity-weight models,
// weighted sampling with and without replacement, and controlled
// rank correlation between publicity and attribute values.
//
// Nothing in this package uses global randomness. Every randomized function
// takes an explicit *rand.Rand (New seeds one) so that simulations,
// experiments and tests are reproducible under a fixed seed. Source is a
// concrete copy of the generator behind New for hot loops: it yields
// the same stream bit for bit, without an interface call per draw, and
// re-seeds about four times faster.
package randx

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// New returns a rand.Rand seeded deterministically.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Derive deterministically derives a child seed from a base seed and a
// path of stream identifiers, using SplitMix64 finalization rounds. It
// lets parallel simulations give every (grid cell, run) its own
// independent, order-free random stream: results are bitwise identical no
// matter how work is scheduled across goroutines.
func Derive(seed int64, ids ...int64) int64 {
	// SplitMix64 absorption: each value is folded in additively with the
	// golden-gamma increment, then finalized. Absorbing purely by addition
	// keeps each step injective in the absorbed value (mixing xor and add
	// of the same word would cancel for values covered by the constant's
	// set bits).
	x := uint64(0)
	mix := func(v uint64) {
		x += v + 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	mix(uint64(seed))
	for _, id := range ids {
		mix(uint64(id))
	}
	return int64(x)
}

// ExponentialWeights returns n positive publicity weights following the
// paper's exponential publicity model: item i (0-based) gets weight
// exp(-lambda * 10 * i / n). The 10/n scaling makes the shape independent of
// the population size: lambda = 0 is uniform, lambda = 4 is the paper's
// "highly skewed" setting (head-to-tail ratio e^40), and the Monte-Carlo
// search's lambda in [-0.4, 0.4] spans almost-uniform shapes in both
// directions (negative lambda reverses the skew). Weights are not
// normalized; use stats.Normalize or pass them to the samplers, which
// normalize internally.
func ExponentialWeights(n int, lambda float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	FillExponentialWeights(w, lambda)
	return w
}

// FillExponentialWeights sets w to ExponentialWeights(len(w), lambda)
// without allocating.
func FillExponentialWeights(w []float64, lambda float64) {
	scale := 10 / float64(len(w))
	for i := range w {
		w[i] = math.Exp(-lambda * scale * float64(i))
	}
}

// UniformWeights returns n equal weights.
func UniformWeights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// ZipfWeights returns n weights proportional to 1/(i+1)^s, a heavy-tailed
// alternative publicity model used by ablation experiments.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// SampleWithReplacement draws k indices from [0, len(weights)) with
// probability proportional to the weights, independently with replacement.
func SampleWithReplacement(rng *rand.Rand, weights []float64, k int) ([]int, error) {
	if err := validateWeights(weights); err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	cum := cumulative(weights)
	total := cum[len(cum)-1]
	out := make([]int, k)
	for i := range out {
		out[i] = searchCumulative(cum, rng.Float64()*total)
	}
	return out, nil
}

// SampleWithoutReplacement draws k distinct indices from
// [0, len(weights)) with probability proportional to the weights, without
// replacement, using the Efraimidis-Spirakis exponential-keys method: each
// index i gets key Exp(1)/w_i and the k smallest keys win. This models a
// data source that mentions an entity at most once (paper Section 2.2).
// k is clamped to len(weights).
func SampleWithoutReplacement(rng *rand.Rand, weights []float64, k int) ([]int, error) {
	if err := validateWeights(weights); err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	if k > len(weights) {
		k = len(weights)
	}
	type keyed struct {
		key float64
		idx int
	}
	keys := make([]keyed, len(weights))
	for i, w := range weights {
		if w <= 0 {
			// Zero-weight items can never be drawn: push them to the end.
			keys[i] = keyed{key: math.Inf(1), idx: i}
			continue
		}
		keys[i] = keyed{key: rng.ExpFloat64() / w, idx: i}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })
	out := make([]int, 0, k)
	for _, kv := range keys[:k] {
		if math.IsInf(kv.key, 1) {
			break // only zero-weight items remain
		}
		out = append(out, kv.idx)
	}
	return out, nil
}

// Shuffle permutes xs in place.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

func validateWeights(weights []float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("randx: empty weight vector")
	}
	var pos bool
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("randx: invalid weight %g at index %d", w, i)
		}
		if w > 0 {
			pos = true
		}
	}
	if !pos {
		return fmt.Errorf("randx: all weights are zero")
	}
	return nil
}

func cumulative(weights []float64) []float64 {
	cum := make([]float64, len(weights))
	var s float64
	for i, w := range weights {
		s += w
		cum[i] = s
	}
	return cum
}

// searchCumulative returns the smallest index i with cum[i] > target.
func searchCumulative(cum []float64, target float64) int {
	idx := sort.SearchFloat64s(cum, target)
	// sort.SearchFloat64s returns the first i with cum[i] >= target; when
	// target lands exactly on a boundary this is still a valid draw. Clamp
	// for the target == total edge case.
	if idx >= len(cum) {
		idx = len(cum) - 1
	}
	return idx
}
