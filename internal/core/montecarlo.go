package core

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/freqstats"
	"repro/internal/parallelx"
	"repro/internal/randx"
	"repro/internal/species"
	"repro/internal/stats"
)

// MonteCarlo is the Monte-Carlo estimator of Section 3.4. Instead of
// assuming the integrated sample approximates sampling with replacement
// (which breaks down with few sources or streakers), it simulates the
// actual per-source sampling process: for candidate parameters
// theta = (N-hat, lambda) it draws each source's n_j items without
// replacement from an exponential-publicity population of size N-hat
// (the n_j are exact for any sub-population — WHERE, GROUP BY group or
// bucket value range — because the sample carries per-entity attribution),
// compares the simulated occurrence profile against the observed one with
// KL divergence (Algorithm 2), grid-searches theta over
// [c, N-hat_Chao92] x [-0.4, 0.4], fits a quadratic surface to the
// divergences and takes its minimum (Algorithm 3).
//
// It is a parametric method (it assumes the exponential publicity shape)
// and needs larger samples to be accurate, but it is the only estimator
// robust to streakers. The KL distance penalizes unmatched unique items,
// so it favors solutions with N-hat close to c — the conservative bias
// discussed in Section 6.1.1.
//
// Each simulated source costs one O(θN) selection of its n_j smallest
// exponential keys rather than an O(θN log θN) sort of all θN of them:
// Algorithm 2 only counts how often each item is drawn (see
// simulateDistance). Results are bitwise those of drawing every source
// with randx.SampleWithoutReplacement (montecarlo_golden_test.go pins
// them).
//
// The grid search is embarrassingly parallel and runs on up to Workers
// goroutines. Every (grid cell, run) pair derives its own RNG stream from
// Seed via randx.Derive, so estimates are bitwise identical for a fixed
// seed regardless of the worker count or scheduling. (This per-run seeding
// scheme replaced a single sequential stream when the grid was
// parallelized; fixed-seed results are stable going forward but differ
// from the pre-parallel implementation.)
//
// The zero value is ready to use with the paper's defaults.
type MonteCarlo struct {
	// Runs is the number of simulation runs averaged per grid cell
	// (Algorithm 2's nbRuns). Values < 1 mean DefaultMCRuns.
	Runs int
	// Seed seeds the simulation RNG; estimates are deterministic for a
	// fixed seed and input.
	Seed int64
	// LambdaMin, LambdaMax and LambdaStep define the skew grid. Zero
	// values mean the paper's defaults -0.4, 0.4, 0.1.
	LambdaMin, LambdaMax, LambdaStep float64
	// NSteps is the number of steps between c and N-hat_Chao92. Values
	// < 1 mean the paper's default 10.
	NSteps int
	// Workers bounds the goroutines used for the grid search: 0 means
	// GOMAXPROCS, 1 forces the sequential path. The result is identical
	// either way.
	Workers int
}

// DefaultMCRuns is the default number of Monte-Carlo simulation runs per
// grid cell.
const DefaultMCRuns = 5

// Name implements SumEstimator.
func (MonteCarlo) Name() string { return "mc" }

func (m MonteCarlo) runs() int {
	if m.Runs < 1 {
		return DefaultMCRuns
	}
	return m.Runs
}

func (m MonteCarlo) lambdaGrid() (lo, hi, step float64) {
	lo, hi, step = m.LambdaMin, m.LambdaMax, m.LambdaStep
	if lo == 0 && hi == 0 {
		lo, hi = -0.4, 0.4
	}
	if step <= 0 {
		step = 0.1
	}
	return lo, hi, step
}

func (m MonteCarlo) nSteps() int {
	if m.NSteps < 1 {
		return 10
	}
	return m.NSteps
}

// EstimateSum implements SumEstimator. The value estimate is mean
// substitution (as in Naive) applied to the Monte-Carlo count estimate.
func (m MonteCarlo) EstimateSum(s *freqstats.Sample) Estimate {
	sp := species.Chao92(s)
	e := newEstimate(s, sp)
	if !e.Valid {
		return e
	}
	nHat := m.EstimateN(s)
	e.CountEstimated = nHat
	c := float64(s.C())
	delta := e.Observed / c * (nHat - c)
	return finishEstimate(e, delta)
}

// EstimateN runs Algorithm 3 and returns the Monte-Carlo count estimate
// N-hat_MC in [c, N-hat_Chao92].
func (m MonteCarlo) EstimateN(s *freqstats.Sample) float64 {
	c := float64(s.C())
	if c == 0 {
		return 0
	}
	chao := species.Chao92(s)
	if !chao.Valid || chao.N <= c+1e-9 {
		return c
	}
	sizes := s.SourceSizes()
	if len(sizes) == 0 {
		return c
	}
	observed := s.OccurrenceCounts()

	lamLo, lamHi, lamStep := m.lambdaGrid()
	nSteps := m.nSteps()
	nStep := (chao.N - c) / float64(nSteps)

	// Materialize the theta grid first, then simulate the cells in
	// parallel. Normalized coordinates keep the surface fit well
	// conditioned: u in [0, 1] spans [c, N-hat_Chao92], v is lambda itself.
	type cell struct {
		thetaN int
		u, lam float64
	}
	var cells []cell
	for i := 0; i <= nSteps; i++ {
		thetaN := int(math.Round(c + float64(i)*nStep))
		if thetaN < s.C() {
			thetaN = s.C()
		}
		for lam := lamLo; lam <= lamHi+1e-9; lam += lamStep {
			cells = append(cells, cell{thetaN: thetaN, u: float64(i) / float64(nSteps), lam: lam})
		}
	}
	us := make([]float64, len(cells))
	vs := make([]float64, len(cells))
	zs := make([]float64, len(cells))
	m.forEachCell(len(cells), func(k int) {
		us[k] = cells[k].u
		vs[k] = cells[k].lam
		zs[k] = m.simulateDistance(k, cells[k].thetaN, cells[k].lam, sizes, observed)
	})

	surface, err := stats.FitQuadSurface(us, vs, zs)
	if err != nil {
		// Fall back to the raw grid minimum (degenerate grids only).
		best := 0
		for i := range zs {
			if zs[i] < zs[best] {
				best = i
			}
		}
		return c + us[best]*(chao.N-c)
	}
	u, _, _ := surface.MinOnGrid(0, 1, lamLo, lamHi, 200)
	return c + u*(chao.N-c)
}

// forEachCell runs fn(0..n-1) on the configured number of workers. Cells
// are independent (each derives its own RNG streams), so scheduling does
// not affect results.
func (m MonteCarlo) forEachCell(n int, fn func(k int)) {
	workers := m.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	parallelx.ForEach(n, workers, fn)
}

// simulateDistance is Algorithm 2: the average smoothed KL divergence over
// the configured number of runs between the observed occurrence profile
// and profiles simulated with population size thetaN and skew lambda.
// Every run draws from its own stream seeded from (Seed, cell, run), so
// the simulation is reproducible under any parallel schedule.
//
// Each simulated source is an Efraimidis-Spirakis draw without
// replacement, exactly as randx.SampleWithoutReplacement makes it: item i
// gets key Exp(1)/w_i, drawn in index order, and the n_j smallest keys are
// the source's items. Algorithm 2 only needs how often each item was
// drawn, not the order, so the kernel selects the n_j smallest (key,
// index) pairs (selectSmallest) and increments their counts. Equal keys
// that straddle the n_j-th place, which a sort leaves in unspecified
// order, go to the lower index. Like randx.SampleWithoutReplacement, a
// zero weight (exp underflow at an extreme lambda) gets an +Inf key without
// a draw, +Inf keys are never counted, and a non-finite weight (exp
// overflow) or a vector without a positive weight makes the cell's
// distance +Inf. The key and count buffers and
// the RNG are allocated once per cell and reused by every run; re-seeding
// the one rand.Rand yields the same stream as randx.New would.
func (m MonteCarlo) simulateDistance(cellIdx int, thetaN int, lambda float64, sizes []int, observed []int) float64 {
	weights := randx.ExponentialWeights(thetaN, lambda)
	drawable := false
	for _, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return math.Inf(1)
		}
		drawable = drawable || w > 0
	}
	if !drawable {
		return math.Inf(1)
	}
	keys := make([]keyedItem, thetaN)
	counts := make([]int, thetaN)
	var rng *rand.Rand
	var total float64
	runs := m.runs()
	for r := 0; r < runs; r++ {
		seed := randx.Derive(m.Seed, int64(cellIdx), int64(r))
		if rng == nil {
			rng = randx.New(seed)
		} else {
			rng.Seed(seed)
		}
		clear(counts)
		for _, nj := range sizes {
			for i, w := range weights {
				key := math.Inf(1)
				if w > 0 {
					key = rng.ExpFloat64() / w
				}
				keys[i] = keyedItem{key: key, idx: int32(i)}
			}
			selectSmallest(keys, nj)
			for _, it := range keys[:min(nj, thetaN)] {
				if !math.IsInf(it.key, 1) {
					counts[it.idx]++
				}
			}
		}
		total += profileDistance(observed, counts)
	}
	return total / float64(runs)
}

// keyedItem is one item's exponential key in a simulated source draw.
type keyedItem struct {
	key float64
	idx int32
}

// before orders items by key, then index. Indexes are distinct, so this is
// a strict total order and the selected set is unique.
func (a keyedItem) before(b keyedItem) bool {
	return a.key < b.key || (a.key == b.key && a.idx < b.idx)
}

// selectSmallest permutes xs so that xs[:k] holds its k smallest items
// (in no particular order). It is a quickselect with median-of-three
// pivots, O(len(xs)) expected; past a depth limit it sorts the remaining
// range, which bounds the worst case at O(n log n).
func selectSmallest(xs []keyedItem, k int) {
	if k <= 0 || k >= len(xs) {
		return
	}
	lo, hi := 0, len(xs)-1 // the k-th smallest (index k-1) lies in [lo, hi]
	for depth := 2 * bits.Len(uint(len(xs))); hi > lo; depth-- {
		if depth == 0 {
			slices.SortFunc(xs[lo:hi+1], func(a, b keyedItem) int {
				if a.before(b) {
					return -1
				}
				return 1
			})
			return
		}
		// Median of three to xs[lo]; then Hoare-partition around it.
		mid := lo + (hi-lo)/2
		if xs[mid].before(xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi].before(xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi].before(xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		xs[lo], xs[mid] = xs[mid], xs[lo]
		p := xs[lo]
		i, j := lo, hi+1
		for {
			for i++; i <= hi && xs[i].before(p); i++ {
			}
			for j--; p.before(xs[j]); j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		xs[lo], xs[j] = xs[j], xs[lo]
		// xs[j] is now in its sorted position.
		switch {
		case j == k-1 || j == k:
			return
		case j < k-1:
			lo = j + 1
		default:
			hi = j - 1
		}
	}
}

// profileDistance indexes the observed and simulated occurrence profiles
// against each other (Algorithm 2's "indexing" step): both are sorted
// descending, padded to a common length — so the i-th most frequent
// observed entity is compared with the i-th most frequent simulated one —
// normalized, smoothed, and compared with KL divergence D(F'_S || F_Q).
// Simulated counts are at most the number of sources, so the simulated
// profile is sorted by a counting sort.
func profileDistance(observed []int, simulated []int) float64 {
	maxCount := 0
	for _, v := range simulated {
		maxCount = max(maxCount, v)
	}
	hist := make([]int, maxCount+1)
	for _, v := range simulated {
		hist[v]++
	}
	// Unseen simulated items (count 0) are trimmed.
	simLen := len(simulated) - hist[0]

	width := max(len(observed), simLen)
	if width == 0 {
		return 0
	}
	fs := make([]float64, width)
	fq := make([]float64, width)
	for i, v := range observed {
		fs[i] = float64(v)
	}
	i := 0
	for v := maxCount; v > 0; v-- {
		for n := hist[v]; n > 0; n-- {
			fq[i] = float64(v)
			i++
		}
	}
	d, err := stats.SmoothedKLDivergence(fs, fq, 0)
	if err != nil {
		return math.Inf(1)
	}
	return d
}
