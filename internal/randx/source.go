package randx

import "math/rand"

// Source is a concrete copy of the generator behind
// rand.New(rand.NewSource(seed)): Seed, Int63, Uint64, Float64 and
// ExpFloat64 return that rand.Rand's values bit for bit. Hot loops that
// draw millions of values call it directly, without the rand.Source
// interface call per value, and re-seed it about four times faster than
// rand.Rand.Seed.
//
// The generator is math/rand's additive lagged Fibonacci generator:
// 607 words, tap 273, every output the sum of the outputs 273 and 607
// steps back. It differs only in how it gets there:
//
//   - Seed computes each of math/rand's 1,821 Lehmer seed words
//     x0·48271^k mod (2^31−1) directly from a power table instead of
//     walking the chain one Schrage division at a time.
//   - The words are kept in output order, so one refill runs the next
//     607 additions as two plain loops, and every draw in between is a
//     load.
//
// A Source is not safe for concurrent use. Its zero value is not seeded:
// call Seed before drawing.
type Source struct {
	// vec[pos:] are the next outputs; vec[:pos] the ones already drawn.
	// vec[i] is the output 607 steps before the one that replaces it.
	vec [rngLen]uint64
	pos int
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1 // the Lehmer seeding modulus, a Mersenne prime
)

// Seed-word tables, filled once by init.
var (
	// seedPowers[i] holds 48271^k mod int32max for the three seed words
	// of vec[i]: math/rand's seeding chain discards 20 words, then takes
	// three per register word.
	seedPowers [rngLen][3]uint32
	// cooked is math/rand's rngCooked table in vec's order.
	cooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	next := func() uint32 {
		p = p * 48271 % int32max
		return uint32(p)
	}
	for range 20 {
		next()
	}
	// math/rand fills its register from index 0 up, and its first
	// output is register word 333: vec holds the register reversed and
	// rotated by 334.
	for r := range rngLen {
		i := (rngLen - rngTap - 1 - r + rngLen) % rngLen
		seedPowers[i] = [3]uint32{next(), next(), next()}
	}

	// Recover rngCooked from math/rand's own stream rather than pasting
	// 607 constants: the first 607 outputs of seed 1 are the register
	// after 607 additions. Undo them, last first, and strip seed 1's
	// seed words (Seed with a zero cooked table leaves exactly those).
	var out Source
	ref := rand.NewSource(1).(rand.Source64)
	for i := range out.vec {
		out.vec[i] = ref.Uint64()
	}
	for i := rngLen - 1; i >= rngTap; i-- {
		out.vec[i] -= out.vec[i-rngTap]
	}
	for i := rngTap - 1; i >= 0; i-- {
		out.vec[i] -= out.vec[i+rngLen-rngTap]
	}
	var words Source
	words.Seed(1)
	for i := range cooked {
		cooked[i] = out.vec[i] ^ words.vec[i]
	}
}

// Seed resets the Source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i, p := range &seedPowers {
		s.vec[i] = mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2]) ^ cooked[i]
	}
	s.pos = rngLen
}

// mulMod returns x·p mod int32max for x, p in [1, int32max). Two
// Mersenne folds reduce the product exactly: it is below 2^62 and never
// a multiple of the prime modulus.
func mulMod(x uint64, p uint32) uint64 {
	z := x * uint64(p)
	z = z&int32max + z>>31
	return z&int32max + z>>31
}

// refill runs the next 607 additions: output k of the block (0-based)
// is vec[k], the output 607 steps back, plus output k−273. For the first
// 273 that is a word of the previous block, vec[k+334]; for the rest, a
// word this pass already replaced. It stays out of line so that Uint64
// inlines.
//
//go:noinline
func (s *Source) refill() {
	v := &s.vec
	for i, x := range v[rngLen-rngTap:] {
		v[i] += x
	}
	for i := rngTap; i < rngLen; i++ {
		v[i] += v[i-rngTap]
	}
	s.pos = 0
}

// Uint64 returns a pseudo-random 64-bit value, as rand.Source64 does.
func (s *Source) Uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	x := s.vec[s.pos]
	s.pos++
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// uint32 is rand.Rand.Uint32: bits 31..62 of the next output.
func (s *Source) uint32() uint32 {
	return uint32(s.Uint64() >> 31)
}

// Float64 returns a pseudo-random number in [0.0, 1.0), as
// rand.Rand.Float64 does (including its rare redraw of a rounded-up 1).
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
