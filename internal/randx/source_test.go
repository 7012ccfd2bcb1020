package randx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is enough draws to cross the refill boundary of the
// 607-word register at least three times.
const sourceDraws = 3*rngLen + 11

// compareStreams draws n values from got and want with the given
// method and fails at the first bitwise difference.
func compareStreams(t testing.TB, what string, got *Source, want *rand.Rand, method string, n int) {
	t.Helper()
	for k := range n {
		var g, w uint64
		switch method {
		case "Int63":
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case "Uint64":
			g, w = got.Uint64(), want.Uint64()
		case "Float64":
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case "ExpFloat64":
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		}
		if g != w {
			t.Fatalf("%s: %s draw %d = %#x, math/rand gives %#x", what, method, k, g, w)
		}
	}
}

var methods = []string{"Int63", "Uint64", "Float64", "ExpFloat64"}

// checkSeed compares every method's stream for seed, each from a fresh
// seed and then all interleaved, re-seeding src each time.
func checkSeed(t testing.TB, src *Source, seed int64) {
	t.Helper()
	what := fmt.Sprintf("seed %d", seed)
	for _, m := range methods {
		src.Seed(seed)
		compareStreams(t, what, src, New(seed), m, sourceDraws)
	}
	src.Seed(seed)
	want := New(seed)
	for k := range sourceDraws {
		m := methods[k%len(methods)]
		compareStreams(t, what+" interleaved", src, want, m, 1+k%5)
	}
}

// Source is rand.New(rand.NewSource(seed)) bit for bit: for seeds at the
// edges of math/rand's seed normalisation (0 and int32max map to the
// same stream, negative seeds wrap), for Derived seeds like the ones the
// Monte-Carlo estimator uses, and for a Source re-seeded mid-stream,
// partway through its 607-word block.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, int32max + 1, 2 * int32max,
		math.MinInt64, math.MaxInt64, 89482311, 1 << 62,
	}
	for k := range int64(16) {
		seeds = append(seeds, Derive(7, k, k%5))
	}
	var src Source
	for _, seed := range seeds {
		checkSeed(t, &src, seed)
		// Leave src mid-block so the next Seed starts from a part-used
		// register.
		for range 1 + int(uint64(seed)%rngLen) {
			src.Uint64()
		}
	}
}

// The cooked table is recovered from seed 1's stream. It must reproduce
// math/rand's for every other seed too, and match the two ends of
// math/rand's rngCooked constant table (its element 0 is the register's
// first seeded word, vec[333]; its element 606 is vec[334]).
func TestSourceCookedTable(t *testing.T) {
	if got, want := int64(cooked[333]), int64(-4181792142133755926); got != want {
		t.Errorf("rngCooked[0] recovered as %d, want %d", got, want)
	}
	if got, want := int64(cooked[334]), int64(4152330101494654406); got != want {
		t.Errorf("rngCooked[606] recovered as %d, want %d", got, want)
	}
	for _, seed := range []int64{2, 1234567} {
		var src Source
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for k := range rngLen {
			if g, w := src.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d: register word %d = %#x, math/rand has %#x", seed, k, g, w)
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	var src Source
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeed(t, &src, seed)
	})
}

// expPaths draws n values from src with ExpFloat64 and counts the draws
// that leave the ziggurat's fast path for a wedge test or for its tail.
func expPaths(src *Source, n int) (wedge, tail int) {
	for range n {
		if src.pos == rngLen {
			src.refill()
		}
		if j := uint32(src.vec[src.pos] >> 31); j >= ke[j&0xFF] {
			if j&0xFF == 0 {
				tail++
			} else {
				wedge++
			}
		}
		src.ExpFloat64()
	}
	return wedge, tail
}

// checkExpFloat64s skips skip words of seed's stream, fills n values with
// ExpFloat64s and compares them, and the next word after them, with n
// ExpFloat64 calls on a Source and on math/rand.
func checkExpFloat64s(t testing.TB, seed int64, skip, n int) {
	t.Helper()
	var got, ref Source
	got.Seed(seed)
	ref.Seed(seed)
	want := New(seed)
	for range skip {
		got.Uint64()
		ref.Uint64()
		want.Uint64()
	}
	buf := make([]float64, n+1)
	buf[n] = -1 // a fill must not write past its end
	got.ExpFloat64s(buf[:n])
	for k, g := range buf[:n] {
		r, w := ref.ExpFloat64(), want.ExpFloat64()
		if math.Float64bits(g) != math.Float64bits(r) || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d skip %d n %d: value %d = %v, ExpFloat64 gives %v, math/rand %v", seed, skip, n, k, g, r, w)
		}
	}
	if buf[n] != -1 {
		t.Fatalf("seed %d skip %d n %d: wrote past the end", seed, skip, n)
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("seed %d skip %d n %d: next word %#x, math/rand gives %#x", seed, skip, n, g, w)
	}
}

// ExpFloat64s is len(dst) ExpFloat64 calls: for fills shorter than,
// equal to and longer than the 607-word block, from a fresh Source (an
// empty buffer), mid-block, at its last word and at its end, and for
// seeds whose fills take the ziggurat's wedge tests and its tail.
func TestExpFloat64sMatchesExpFloat64(t *testing.T) {
	lengths := []int{0, 1, rngLen - 1, rngLen, rngLen + 1, sourceDraws}
	skips := []int{0, 1, 300, rngLen - 1, rngLen}
	seeds := []int64{1, -1, Derive(7, 3, 1)}
	// Find a seed whose first sourceDraws draws reach the tail; every
	// fill that long takes wedge tests.
	var wedge, tail int
	for seed := int64(2); tail == 0; seed++ {
		if seed > 1000 {
			t.Fatal("no seed in [2, 1000] reaches the ziggurat's tail")
		}
		var src Source
		src.Seed(seed)
		if wedge, tail = expPaths(&src, sourceDraws); tail > 0 {
			seeds = append(seeds, seed)
		}
	}
	if wedge == 0 {
		t.Fatalf("seed %d: no wedge test in %d draws", seeds[len(seeds)-1], sourceDraws)
	}
	for _, seed := range seeds {
		for _, skip := range skips {
			for _, n := range lengths {
				checkExpFloat64s(t, seed, skip, n)
			}
		}
	}
}

func FuzzExpFloat64sMatchesExpFloat64(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(sourceDraws))
	f.Add(int64(-1), uint16(rngLen-1), uint16(rngLen+1))
	f.Fuzz(func(t *testing.T, seed int64, skip, n uint16) {
		checkExpFloat64s(t, seed, int(skip), int(n))
	})
}

var sinkFloat float64

// BenchmarkSourceSeed times one re-seed, as the Monte-Carlo estimator
// does once per (grid cell, run), against rand.Rand.Seed.
func BenchmarkSourceSeed(b *testing.B) {
	b.Run("randx", func(b *testing.B) {
		var src Source
		seed := int64(0)
		for b.Loop() {
			seed++
			src.Seed(seed)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		rng := New(0)
		seed := int64(0)
		for b.Loop() {
			seed++
			rng.Seed(seed)
		}
	})
}

// BenchmarkSourceExpFloat64 times one exponential draw against
// rand.Rand.ExpFloat64.
func BenchmarkSourceExpFloat64(b *testing.B) {
	b.Run("randx", func(b *testing.B) {
		var src Source
		src.Seed(1)
		var s float64
		for b.Loop() {
			s += src.ExpFloat64()
		}
		sinkFloat = s
	})
	b.Run("math-rand", func(b *testing.B) {
		rng := New(1)
		var s float64
		for b.Loop() {
			s += rng.ExpFloat64()
		}
		sinkFloat = s
	})
}

// BenchmarkSourceExpFloat64s times filling a Monte-Carlo source's 250
// keys in one call against 250 rand.Rand.ExpFloat64 calls.
func BenchmarkSourceExpFloat64s(b *testing.B) {
	dst := make([]float64, 250)
	b.Run("randx", func(b *testing.B) {
		var src Source
		src.Seed(1)
		for b.Loop() {
			src.ExpFloat64s(dst)
		}
		sinkFloat = dst[0]
	})
	b.Run("math-rand", func(b *testing.B) {
		rng := New(1)
		for b.Loop() {
			for i := range dst {
				dst[i] = rng.ExpFloat64()
			}
		}
		sinkFloat = dst[0]
	})
}
