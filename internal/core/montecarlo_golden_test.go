package core

import (
	"math"
	"testing"

	"repro/internal/freqstats"
)

// The Monte-Carlo estimator's output is pinned to the bit. The values were
// captured with every simulated source drawn by
// randx.SampleWithoutReplacement (a full sort of the keys), the reference
// the count-only kernel must match, so any change to the RNG draws, their
// order, the per-(cell, run) seeds, the selected sets or the profile
// indexing shows up here. Each row is math.Float64bits of
// MonteCarlo{}.EstimateN, of MonteCarlo{}.EstimateSum's Estimated and
// CountEstimated, and of BucketedMonteCarlo{}.EstimateSum's Estimated and
// CountEstimated.
var mcGolden = []struct {
	name                       string
	n, sum, sumN, bmcSum, bmcN uint64
}{
	{"mix-c150", 0x406dde11ca072ae1, 0x4168834f05dd4498, 0x406dde11ca072ae1, 0x4166d6b059da0fd0, 0x40709204cb1cd351},
	{"mix-c200", 0x40738bebebebebec, 0x4170582052d2d2d3, 0x40738bebebebebec, 0x416ede942b997299, 0x40755a2ace727b5b},
	{"mix-c750", 0x409161467e2519f8, 0x418d695244404f26, 0x409161467e2519f8, 0x418c0c594cbd1871, 0x40926fa838c915ba},
	{"mix-c900", 0x4094c587a63f3c2d, 0x419173571ed21a85, 0x4094c587a63f3c2d, 0x4190a6a1c53bb0a0, 0x4095fe840216dc14},
	{"streaker", 0x40808c02abda9a0c, 0x41361efcca0473c2, 0x40808c02abda9a0c, 0x412fb5ba07ae147b, 0x407cfd4432ca57a8},
}

func TestMonteCarloGoldenBits(t *testing.T) {
	fixtures := map[string]func(testing.TB) *freqstats.Sample{
		"mix-c150": func(tb testing.TB) *freqstats.Sample { return mixSample(tb, 150) },
		"mix-c200": func(tb testing.TB) *freqstats.Sample { return mixSample(tb, 200) },
		"mix-c750": func(tb testing.TB) *freqstats.Sample { return mixSample(tb, 750) },
		"mix-c900": func(tb testing.TB) *freqstats.Sample { return mixSample(tb, 900) },
		"streaker": streakerSample,
	}
	for _, g := range mcGolden {
		t.Run(g.name, func(t *testing.T) {
			s := fixtures[g.name](t)
			check := func(what string, got float64, want uint64) {
				t.Helper()
				if math.Float64bits(got) != want {
					t.Errorf("%s = %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), math.Float64frombits(want), want)
				}
			}
			for _, workers := range []int{0, 1} {
				mc := MonteCarlo{Workers: workers}
				check("EstimateN", mc.EstimateN(s), g.n)
				est := mc.EstimateSum(s)
				check("EstimateSum.Estimated", est.Estimated, g.sum)
				check("EstimateSum.CountEstimated", est.CountEstimated, g.sumN)
			}
			bmc := BucketedMonteCarlo{}.EstimateSum(s)
			check("BucketedMonteCarlo.Estimated", bmc.Estimated, g.bmcSum)
			check("BucketedMonteCarlo.CountEstimated", bmc.CountEstimated, g.bmcN)
		})
	}
}

// Lambda grids far outside the paper's [-0.4, 0.4] push exp(-lambda*10*i/N)
// past float64's range: a large positive lambda underflows the tail
// weights to zero (those items are never drawn and take no RNG draw), a
// large negative one overflows them to +Inf (the cell is rejected with
// distance +Inf). Both are pinned to randx.SampleWithoutReplacement's
// handling, captured like mcGolden.
var mcGoldenExtremeLambda = []struct {
	name         string
	mc           MonteCarlo
	fixture      func(testing.TB) *freqstats.Sample
	n, sum, sumN uint64
}{
	{"streaker-wide", MonteCarlo{LambdaMin: -1000, LambdaMax: 1000, LambdaStep: 500}, streakerSample,
		0x4075aee30f9525d8, 0x412cfccdd37a6f4e, 0x4075aee30f9525d8},
	{"streaker-underflow", MonteCarlo{LambdaMin: 0, LambdaMax: 1000, LambdaStep: 250}, streakerSample,
		0x4083137a6f4de9bd, 0x413980910b21642c, 0x4083137a6f4de9bd},
	{"mix-c200-wide", MonteCarlo{LambdaMin: -1000, LambdaMax: 1000, LambdaStep: 500},
		func(tb testing.TB) *freqstats.Sample { return mixSample(tb, 200) },
		0x4072232323232323, 0x416e54e61e1e1e1e, 0x4072232323232323},
}

func TestMonteCarloGoldenBitsExtremeLambda(t *testing.T) {
	for _, g := range mcGoldenExtremeLambda {
		t.Run(g.name, func(t *testing.T) {
			s := g.fixture(t)
			check := func(what string, workers int, got float64, want uint64) {
				t.Helper()
				if math.Float64bits(got) != want {
					t.Errorf("workers=%d %s = %v (%#x), want %v (%#x)", workers, what, got, math.Float64bits(got), math.Float64frombits(want), want)
				}
			}
			for _, workers := range []int{0, 1} {
				mc := g.mc
				mc.Workers = workers
				check("EstimateN", workers, mc.EstimateN(s), g.n)
				est := mc.EstimateSum(s)
				check("EstimateSum.Estimated", workers, est.Estimated, g.sum)
				check("EstimateSum.CountEstimated", workers, est.CountEstimated, g.sumN)
			}
		})
	}
}
