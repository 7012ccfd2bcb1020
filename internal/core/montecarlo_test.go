package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/freqstats"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestMonteCarloEmptyAndDegenerate(t *testing.T) {
	mc := MonteCarlo{Runs: 2}
	est := mc.EstimateSum(freqstats.NewSample())
	if est.Valid {
		t.Error("empty sample produced a valid estimate")
	}
	if n := mc.EstimateN(freqstats.NewSample()); n != 0 {
		t.Errorf("EstimateN on empty = %g", n)
	}

	// Fully covered sample: Chao92 == c, so MC short-circuits to c.
	s := freqstats.NewSample()
	for i := 0; i < 10; i++ {
		for k := 0; k < 3; k++ {
			mustAdd(t, s, string(rune('a'+i)), float64(i+1)*10, "s")
		}
	}
	if n := mc.EstimateN(s); n != 10 {
		t.Errorf("EstimateN on complete sample = %g, want 10", n)
	}
}

func TestMonteCarloWithinChaoRange(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(1), sim.Config{N: 100, Lambda: 1, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(2), g, sim.IntegrationConfig{
		NumSources: 20, SourceSize: 10, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(150)
	if err != nil {
		t.Fatal(err)
	}
	mc := MonteCarlo{Runs: 2, Seed: 3}
	nHat := mc.EstimateN(s)
	c := float64(s.C())
	chao := Naive{}.EstimateSum(s).CountEstimated
	if nHat < c-1e-9 || nHat > chao+1e-9 {
		t.Errorf("N-hat_MC = %g outside [c=%g, chao=%g]", nHat, c, chao)
	}
}

func TestMonteCarloDeterministicForSeed(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(4), sim.Config{N: 80, Lambda: 2, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(5), g, sim.IntegrationConfig{
		NumSources: 15, SourceSize: 10, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(120)
	if err != nil {
		t.Fatal(err)
	}
	a := MonteCarlo{Runs: 2, Seed: 42}.EstimateSum(s)
	b := MonteCarlo{Runs: 2, Seed: 42}.EstimateSum(s)
	if a.Estimated != b.Estimated {
		t.Errorf("same seed gave %g and %g", a.Estimated, b.Estimated)
	}
}

// Parallel fan-out must not cost reproducibility: for a fixed seed the
// estimate is bitwise identical across repeated runs and across any
// worker count, because every (cell, run) derives its own RNG stream.
func TestMonteCarloParallelBitwiseDeterministic(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(11), sim.Config{N: 90, Lambda: 2, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(12), g, sim.IntegrationConfig{
		NumSources: 18, SourceSize: 9, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(140)
	if err != nil {
		t.Fatal(err)
	}
	sequential := MonteCarlo{Runs: 3, Seed: 42, Workers: 1}.EstimateSum(s)
	for _, workers := range []int{0, 2, 7} {
		for rep := 0; rep < 3; rep++ {
			got := MonteCarlo{Runs: 3, Seed: 42, Workers: workers}.EstimateSum(s)
			if got.Estimated != sequential.Estimated || got.CountEstimated != sequential.CountEstimated {
				t.Fatalf("workers=%d rep=%d: estimate %v != sequential %v",
					workers, rep, got.Estimated, sequential.Estimated)
			}
		}
	}
}

// The headline robustness claim (Section 6.3): under the successive-
// exhaustive-streakers scenario the Chao92-based estimators blow up while
// Monte-Carlo stays near the observed sum.
func TestMonteCarloRobustToStreakers(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(6), sim.Config{N: 100, Lambda: 1, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.SuccessiveExhaustive(g, 2)
	// After the first exhaustive source everything is a singleton: take a
	// prefix where source one has finished and source two has begun.
	s, err := st.Prefix(120)
	if err != nil {
		t.Fatal(err)
	}
	truth := g.Sum()
	observed := s.SumValues()
	// Observed is already complete (the first source saw everything).
	if math.Abs(observed-truth) > 1e-6 {
		t.Fatalf("observed %g != truth %g", observed, truth)
	}

	naive := Naive{}.EstimateSum(s)
	mc := MonteCarlo{Runs: 2, Seed: 7}.EstimateSum(s)

	naiveErr := math.Abs(naive.Estimated - truth)
	mcErr := math.Abs(mc.Estimated - truth)
	if mcErr >= naiveErr {
		t.Errorf("MC error %.0f not below naive error %.0f under streakers", mcErr, naiveErr)
	}
	// MC should stay within a modest factor of the truth.
	if mcErr > 0.5*truth {
		t.Errorf("MC estimate %g too far from truth %g", mc.Estimated, truth)
	}
}

// Section 6.1.1: with a near-uniform residual publicity the MC estimator
// tends toward N-hat ~ c (it penalizes unmatched unique items). Verify the
// conservative bias: N-hat_MC stays below the Chao92 estimate under
// streaker contamination.
func TestMonteCarloConservativeBias(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(8), sim.Config{N: 100, Lambda: 1, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Integrate(randx.New(9), g, sim.IntegrationConfig{
		NumSources: 20, SourceSize: 8, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.InjectStreaker(base, g, 100, "streaker")
	s, err := st.Prefix(220)
	if err != nil {
		t.Fatal(err)
	}
	chao := Naive{}.EstimateSum(s).CountEstimated
	mcN := MonteCarlo{Runs: 2, Seed: 10}.EstimateN(s)
	if mcN > chao {
		t.Errorf("MC N-hat %g above Chao92 %g", mcN, chao)
	}
}

func TestProfileDistance(t *testing.T) {
	profileDistance := func(observed, simulated []int) float64 {
		var d profileDistance
		return d.distance(observed, simulated)
	}
	// Identical profiles: zero distance.
	if d := profileDistance([]int{3, 2, 1}, []int{1, 2, 3}); d > 1e-6 {
		t.Errorf("identical profiles distance = %g", d)
	}
	// A longer simulated profile must cost more than a matching one.
	matching := profileDistance([]int{3, 2, 1}, []int{3, 2, 1})
	extra := profileDistance([]int{3, 2, 1}, []int{3, 2, 1, 1, 1, 1})
	if extra <= matching {
		t.Errorf("unmatched simulated items not penalized: %g <= %g", extra, matching)
	}
	// Empty inputs do not blow up.
	if d := profileDistance(nil, nil); d != 0 {
		t.Errorf("empty profiles distance = %g", d)
	}
}

func TestMonteCarloDefaults(t *testing.T) {
	mc := MonteCarlo{}
	if mc.runs() != DefaultMCRuns {
		t.Errorf("default runs = %d", mc.runs())
	}
	lo, hi, step := mc.lambdaGrid()
	if lo != -0.4 || hi != 0.4 || step != 0.1 {
		t.Errorf("default grid = %g..%g step %g", lo, hi, step)
	}
	if mc.nSteps() != 10 {
		t.Errorf("default N steps = %d", mc.nSteps())
	}
}

// sortedSelection is the reference for countSmallest: the counts a full
// sort of the (key, index) pairs gives when the first k are drawn and
// +Inf keys are not counted.
func sortedSelection(keys []float64, k int) []int {
	idx := allIndexes(len(keys))
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	counts := make([]int, len(keys))
	for _, i := range idx[:min(max(k, 0), len(keys))] {
		if !math.IsInf(keys[i], 1) {
			counts[i]++
		}
	}
	return counts
}

// allIndexes is 0, 1, ..., n-1.
func allIndexes(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// checkCountSmallest runs countSmallest on counts that already hold
// earlier sources' draws and compares the increments with the sort.
func checkCountSmallest(t *testing.T, what string, keys []float64, k int) {
	t.Helper()
	want := sortedSelection(keys, k)
	counts := make([]int, len(keys))
	for i := range counts {
		counts[i] = i % 3
		want[i] += i % 3
	}
	countSmallest(keys, allIndexes(len(keys)), make([]int64, len(keys)), counts, k)
	for i := range counts {
		if counts[i] != want[i] {
			t.Fatalf("%s n=%d k=%d: counts[%d] = %d (key %v), want %d", what, len(keys), k, i, counts[i], keys[i], want[i])
		}
	}
}

// countSmallest must count exactly the k smallest (key, index) pairs for
// every k: with random keys, ties at the k-th place, +Inf keys (zero
// weights, including a k-th smallest key of +Inf) and keys trending up or
// down along the index (as skewed publicity weights make them).
func TestCountSmallestMatchesSort(t *testing.T) {
	rng := randx.New(9)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		if trial%2 == 0 {
			n = 1 + rng.Intn(3000)
		}
		keys := make([]float64, n)
		for i := range keys {
			key := rng.ExpFloat64()
			switch trial % 5 {
			case 1:
				key = float64(rng.Intn(4)) // heavy ties
			case 2:
				key *= math.Exp(4 * float64(i) / float64(n)) // trending up
			case 3:
				key *= math.Exp(-4 * float64(i) / float64(n)) // trending down
				if rng.Intn(4) == 0 {
					key = math.Inf(1)
				}
			case 4:
				if rng.Intn(4) != 0 {
					key = math.Inf(1) // mostly +Inf: k often lands on +Inf
				}
			}
			keys[i] = key
		}
		ks := []int{0, 1, rng.Intn(n + 1), n / 20, n / 2, n - 1, n, n + 5}
		for _, k := range ks {
			checkCountSmallest(t, fmt.Sprintf("trial %d", trial), keys, k)
		}
		// Force a tie at the k-th place: copy the k-th smallest key onto
		// random other items, so equal keys straddle the boundary.
		k := 1 + rng.Intn(n)
		tied := slices.Clone(keys)
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		for r := 0; r < 1+n/10; r++ {
			tied[rng.Intn(n)] = sorted[k-1]
		}
		checkCountSmallest(t, fmt.Sprintf("trial %d tied", trial), tied, k)
	}
}

// Inputs that make a plain Lomuto quickselect quadratic (equal keys, as
// +Inf keys of underflowed weights are, and presorted keys) must stay
// O(n log n) through the depth guard: each selection is bounded by a
// small multiple of sorting random keys of the same size, far below the
// ~n/log n factor a quadratic run would take at n = 65,536.
func TestCountSmallestAdversarialInputs(t *testing.T) {
	const n = 1 << 16
	rng := randx.New(3)
	random := make([]float64, n)
	for i := range random {
		random[i] = rng.ExpFloat64()
	}
	minTime := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < 3; r++ {
			start := time.Now()
			f()
			best = min(best, time.Since(start))
		}
		return best
	}
	sortTime := minTime(func() { slices.Sort(slices.Clone(random)) })

	inputs := map[string]func(i int) float64{
		"all-equal":  func(int) float64 { return 1 },
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"90%-inf": func(i int) float64 {
			if i%10 != 0 {
				return math.Inf(1)
			}
			return random[i]
		},
	}
	for name, key := range inputs {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = key(i)
		}
		for _, k := range []int{1, n / 20, n / 2, n - 1} {
			checkCountSmallest(t, name, keys, k)
			idx, scratch, counts := allIndexes(n), make([]int64, n), make([]int, n)
			if d := minTime(func() { countSmallest(keys, idx, scratch, counts, k) }); d > 20*sortTime+10*time.Millisecond {
				t.Errorf("%s k=%d: countSmallest took %v, sorting %d random keys %v", name, k, d, n, sortTime)
			}
		}
	}
}

// selectSource, which selects over the keys below a candidate limit and
// falls back to every drawable key when fewer than n_j are candidates,
// counts what countSmallest over every drawable key counts and divides
// the keys in place. The limits sit at, just below and past the n_j-th
// key (equal keys straddling it), admit no key or every key; n_j is 0, at
// most the candidates, past them, and past the drawable keys; keys are
// tied, distinct or +Inf; zero weights split the positive ones into runs.
func TestSelectSourceMatchesCountSmallest(t *testing.T) {
	rng := randx.New(13)
	var c mcCell
	var candidate, fallback int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		c.weights = resize(c.weights, n)
		for i := range c.weights {
			c.weights[i] = 1
			switch trial % 3 {
			case 1:
				c.weights[i] = 0.05 + rng.Float64()
			case 2:
				if rng.Intn(5) == 0 {
					c.weights[i] = 0
				}
			}
		}
		c.weights[rng.Intn(n)] = 1
		if !c.index() {
			t.Fatalf("trial %d: weights rejected", trial)
		}
		raw := make([]float64, n)
		keys := make([]float64, n)
		var bits []int64
		for _, i := range c.drawable {
			raw[i] = rng.ExpFloat64()
			if trial%3 != 1 {
				raw[i] = float64(rng.Intn(8)) // heavy ties
			}
			if rng.Intn(10) == 0 {
				raw[i] = math.Inf(1)
			}
			keys[i] = raw[i] / c.weights[i]
			bits = append(bits, int64(math.Float64bits(keys[i])))
		}
		slices.Sort(bits)
		nd := len(c.drawable)
		for _, nj := range []int{0, 1, 1 + rng.Intn(nd), nd / 2, nd, nd + 3} {
			lims := []int64{0, takeAll}
			for _, rank := range []int{nj - 2, nj - 1, nj, nj + 1, 2*nj + 5} {
				if rank >= 1 && rank <= nd {
					lims = append(lims, bits[rank-1], bits[rank-1]+1)
				}
			}
			for _, lim := range lims {
				what := fmt.Sprintf("trial %d n=%d drawable=%d nj=%d lim=%#x", trial, n, nd, nj, lim)
				for i := range c.keys {
					c.keys[i] = math.NaN() // zero weights' keys must not be read
					c.counts[i] = i % 3
				}
				for _, i := range c.drawable {
					c.keys[i] = raw[i]
				}
				want := make([]int, n)
				for i := range want {
					want[i] = i % 3
				}
				countSmallest(keys, c.drawable, make([]int64, n), want, nj)
				nc := 0
				for _, i := range c.drawable {
					if int64(math.Float64bits(keys[i])) < lim {
						nc++
					}
				}
				wantFell := nc < nj && nc < nd
				if fell := c.selectSource(nj, lim); fell != wantFell {
					t.Fatalf("%s: fell back %v with %d candidates", what, fell, nc)
				}
				if wantFell {
					fallback++
				} else if nj > 0 && nc < nd {
					candidate++
				}
				for _, i := range c.drawable {
					if math.Float64bits(c.keys[i]) != math.Float64bits(keys[i]) {
						t.Fatalf("%s: key %d = %v, want %v", what, i, c.keys[i], keys[i])
					}
				}
				for i := range want {
					if c.counts[i] != want[i] {
						t.Fatalf("%s: counts[%d] = %d (key %v), want %d", what, i, c.counts[i], keys[i], want[i])
					}
				}
			}
		}
	}
	if candidate == 0 || fallback == 0 {
		t.Fatalf("%d selections over a proper candidate subset, %d fallbacks: both paths must run", candidate, fallback)
	}
}

// On the estimate-mix fixtures each grid cell calibrates once, and at
// most one simulated source in a hundred finds fewer than n_j candidates
// and falls back to every drawable key.
func TestMonteCarloSelectionPathShares(t *testing.T) {
	for _, c := range []int{150, 200, 750, 900} {
		s := mixSample(t, c)
		_, p := MonteCarlo{}.estimateN(s)
		if want := p.calibration * DefaultMCRuns * len(s.SourceSizes()); p.calibration == 0 || p.sources != want {
			t.Fatalf("c=%d: %d sources, want %d: one calibration draw per cell of %d", c, p.sources, want, p.calibration)
		}
		share := func(k int) float64 { return 100 * float64(k) / float64(p.sources) }
		t.Logf("c=%d: %d sources, candidates %.2f%%, calibration %.2f%%, fallback %.2f%%", c, p.sources,
			share(p.sources-p.calibration-p.fallback), share(p.calibration), share(p.fallback))
		if 100*p.fallback > p.sources {
			t.Errorf("c=%d: %d of %d sources fell back", c, p.fallback, p.sources)
		}
	}
}

// referenceDistance is the unfused Algorithm 2 distance: the profiles
// sorted descending, padded to a common length and compared with
// stats.SmoothedKLDivergence.
func referenceDistance(observed, simulated []int) float64 {
	var sim []int
	for _, v := range simulated {
		if v > 0 {
			sim = append(sim, v)
		}
	}
	slices.Sort(sim)
	slices.Reverse(sim)
	width := max(len(observed), len(sim))
	if width == 0 {
		return 0
	}
	fs := make([]float64, width)
	fq := make([]float64, width)
	for i, v := range observed {
		fs[i] = float64(v)
	}
	for i, v := range sim {
		fq[i] = float64(v)
	}
	d, err := stats.SmoothedKLDivergence(fs, fq, 0)
	if err != nil {
		return math.Inf(1)
	}
	return d
}

// The fused distance, growing and reusing its buffers across calls, is
// bitwise the unfused one: observed longer than simulated and the other
// way round, an all-zero simulated profile, both empty, long plateaus,
// a simulated profile of one repeated count, and observed profiles in no
// particular order (the KL terms are computed once per run of equal
// pairs, which sorting only makes long). The uniform fallback of
// stats.Normalize, which integer profiles cannot reach, is checked on
// the KL pass directly.
func TestProfileDistanceMatchesSmoothedKL(t *testing.T) {
	const maxObserved, maxItems, maxSources = 300, 400, 12
	var dist profileDistance
	check := func(what string, observed, simulated []int) {
		t.Helper()
		got := dist.distance(observed, simulated)
		want := referenceDistance(observed, simulated)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: distance %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check("both empty", nil, nil)
	check("all-zero simulated", []int{3, 2, 1}, make([]int, 5))
	check("empty observed", nil, []int{0, 2, 1})
	check("observed longer", []int{5, 4, 3, 3, 2, 1, 1}, []int{0, 2, 0, 1})
	check("simulated longer", []int{2, 1}, []int{1, 1, 3, 2, 1, 0, 1})
	plateaus := func(runs ...int) []int { // count, length, count, length...
		var xs []int
		for k := 0; k < len(runs); k += 2 {
			xs = append(xs, slices.Repeat([]int{runs[k]}, runs[k+1])...)
		}
		return xs
	}
	check("long plateaus", plateaus(9, 40, 5, 170, 2, 300, 1, 450), plateaus(8, 90, 0, 60, 4, 210, 2, 200, 1, 400))
	check("one simulated count", plateaus(6, 10, 3, 120, 1, 200), plateaus(3, 500))
	check("unsorted observed", []int{1, 4, 0, 2, 4, 4, 1, 3}, []int{2, 0, 2, 1, 4, 1})

	for _, tc := range []struct {
		what   string
		fs, fq []float64
	}{
		{"observed sum overflows", []float64{math.MaxFloat64, math.MaxFloat64, 3, 1}, []float64{2, 2, 1, 1}},
		{"simulated sum overflows", []float64{4, 2, 2, 1}, []float64{1, math.MaxFloat64, math.MaxFloat64, 1}},
		{"both sums overflow", []float64{math.MaxFloat64, math.MaxFloat64, 1}, []float64{math.MaxFloat64, 1, math.MaxFloat64}},
	} {
		got := normalizedKL(tc.fs, tc.fq)
		want, err := stats.KLDivergence(stats.Normalize(tc.fs), stats.Normalize(tc.fq))
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: KL %v, want %v (err %v)", tc.what, got, want, err)
		}
	}

	rng := randx.New(5)
	for trial := 0; trial < 300; trial++ {
		sources := 1 + rng.Intn(maxSources)
		observed := make([]int, rng.Intn(maxObserved+1))
		for i := range observed {
			observed[i] = 1 + rng.Intn(sources)
		}
		slices.Sort(observed)
		slices.Reverse(observed)
		simulated := make([]int, rng.Intn(maxItems+1))
		for i := range simulated {
			if rng.Intn(3) > 0 {
				simulated[i] = rng.Intn(sources + 1)
			}
		}
		check(fmt.Sprintf("trial %d", trial), observed, simulated)
		half := len(observed) / 2
		check(fmt.Sprintf("trial %d, observed rotated", trial), slices.Concat(observed[half:], observed[:half]), simulated)
	}
}

// BenchmarkMonteCarloMixSample times one default Monte-Carlo estimate on
// estimate-mix-shaped sub-samples from each of the workload's two
// sample-size bands, sequentially and on GOMAXPROCS workers.
func BenchmarkMonteCarloMixSample(b *testing.B) {
	for _, c := range []int{200, 750} {
		s := mixSample(b, c)
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("c=%d/workers=%d", c, workers), func(b *testing.B) {
				b.ReportAllocs()
				mc := MonteCarlo{Workers: workers}
				for b.Loop() {
					mc.EstimateSum(s)
				}
			})
		}
	}
}
