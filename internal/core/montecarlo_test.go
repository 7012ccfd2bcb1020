package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/freqstats"
	"repro/internal/randx"
	"repro/internal/sim"
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

func sortKeyed(xs []keyedItem) {
	slices.SortFunc(xs, func(a, b keyedItem) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
}

// selectSmallest must produce exactly the k smallest (key, index) pairs
// for every k: with random keys, heavy ties, +Inf keys (zero weights) and
// keys trending up or down along the index (as skewed publicity weights
// make them).
func TestSelectSmallestMatchesSort(t *testing.T) {
	rng := randx.New(9)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(200)
		if trial%2 == 0 {
			n = 1 + rng.Intn(3000)
		}
		xs := make([]keyedItem, n)
		for i := range xs {
			key := rng.ExpFloat64()
			switch trial % 4 {
			case 1:
				key = float64(rng.Intn(4)) // heavy ties
			case 2:
				key *= math.Exp(4 * float64(i) / float64(n)) // trending up
			case 3:
				key *= math.Exp(-4 * float64(i) / float64(n)) // trending down
				if rng.Intn(4) == 0 {
					key = math.Inf(1)
				}
			}
			xs[i] = keyedItem{key: key, idx: int32(i)}
		}
		sorted := slices.Clone(xs)
		sortKeyed(sorted)
		for _, k := range []int{0, 1, rng.Intn(n + 1), n / 20, n / 2, n - 1, n} {
			got := slices.Clone(xs)
			selectSmallest(got, k)
			head := got[:k]
			sortKeyed(head)
			if !slices.Equal(head, sorted[:k]) {
				t.Fatalf("selectSmallest trial %d n=%d k=%d: selected %v, want %v", trial, n, k, head, sorted[:k])
			}
		}
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
