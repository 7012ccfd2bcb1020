package core

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

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
// Each simulated source costs one batched fill of its θN exponential keys
// and one pass that divides them by their weights, rather than an
// O(θN log θN) sort: Algorithm 2 only counts how often each item is
// drawn, so only the n_j smallest keys matter (see simulateDistance). The
// division pass lists the keys under a per-source threshold calibrated
// once per cell, and the n_j-th smallest key is selected from that short
// candidate list, or from every key when it falls short. The keys come
// from a randx.Source, which yields rand.Rand's stream without its
// interface call and re-seeds by jump-ahead. Per-cell buffers and RNGs
// are pooled. The profile distance computes each KL term once per run of
// equal profile pairs. Results are bitwise those of drawing every source
// with randx.SampleWithoutReplacement from randx.New and comparing
// profiles with stats.SmoothedKLDivergence (montecarlo_golden_test.go
// pins them).
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
	n, _ := m.estimateN(s)
	return n
}

// estimateN is EstimateN that also reports how the simulated sources were
// selected.
func (m MonteCarlo) estimateN(s *freqstats.Sample) (float64, selectionPaths) {
	var paths selectionPaths
	c := float64(s.C())
	if c == 0 {
		return 0, paths
	}
	chao := species.Chao92(s)
	if !chao.Valid || chao.N <= c+1e-9 {
		return c, paths
	}
	sizes := s.SourceSizes()
	if len(sizes) == 0 {
		return c, paths
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
	cellPaths := make([]selectionPaths, len(cells))
	m.forEachCell(len(cells), func(k int) {
		us[k] = cells[k].u
		vs[k] = cells[k].lam
		zs[k], cellPaths[k] = m.simulateDistance(k, cells[k].thetaN, cells[k].lam, sizes, observed)
	})
	for _, p := range cellPaths {
		paths.sources += p.sources
		paths.calibration += p.calibration
		paths.fallback += p.fallback
	}

	surface, err := stats.FitQuadSurface(us, vs, zs)
	if err != nil {
		// Fall back to the raw grid minimum (degenerate grids only).
		best := 0
		for i := range zs {
			if zs[i] < zs[best] {
				best = i
			}
		}
		return c + us[best]*(chao.N-c), paths
	}
	u, _, _ := surface.MinOnGrid(0, 1, lamLo, lamHi, 200)
	return c + u*(chao.N-c), paths
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

// selectionPaths counts how an estimate's simulated sources were
// selected: a cell's first source calibrates the cell's thresholds and is
// selected over every drawable key, and every later one over its
// candidates, unless they fall short of its n_j and it falls back to
// every drawable key.
type selectionPaths struct {
	sources     int // simulated sources drawn
	calibration int // calibration draws
	fallback    int // candidate lists shorter than n_j
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
// the source's items. Like randx.SampleWithoutReplacement, a zero weight
// (exp underflow at an extreme lambda) takes no draw and is never drawn,
// and a non-finite weight (exp overflow) or a vector without a positive
// weight makes the cell's distance +Inf. A source's draws are filled in
// one batch per maximal run of positive weights (randx.Source.ExpFloat64s),
// then divided by their weights in place.
//
// Algorithm 2 only needs how often each item was drawn, not the order, so
// countSmallest finds the n_j-th smallest key and counts every item at or
// below it; equal keys that straddle the n_j-th place, which a sort leaves
// in unspecified order, go to the lower index. It does not look at every
// key: most sources draw a small share of the θN items, so the division
// pass also lists each source's candidates, the keys at or below a
// threshold calibrated once per cell from the cell's first draw (see
// mcCell.calibrate), and the selection runs on those. A threshold is only
// a filter: the candidates hold every key at or below it, so whenever they
// number at least n_j they hold the n_j smallest, and when they do not the
// selection runs over every drawable key. Either way the selected set is
// the one a full sort gives.
//
// The buffers, the weights and the RNG come from a pool and are reused
// by every run. The RNG is a randx.Source re-seeded per run, which yields
// the stream randx.New would, bit for bit.
func (m MonteCarlo) simulateDistance(cellIdx int, thetaN int, lambda float64, sizes []int, observed []int) (float64, selectionPaths) {
	var paths selectionPaths
	c := cellPool.Get().(*mcCell)
	defer cellPool.Put(c)
	if !c.reset(thetaN, lambda) {
		return math.Inf(1), paths
	}
	var total float64
	runs := m.runs()
	for r := 0; r < runs; r++ {
		c.rng.Seed(randx.Derive(m.Seed, int64(cellIdx), int64(r)))
		clear(c.counts)
		for j, nj := range sizes {
			c.draw()
			if r == 0 && j == 0 {
				c.selectSource(nj, takeAll)
				c.calibrate(sizes)
				paths.calibration++
			} else if c.selectSource(nj, c.lims[j]) {
				paths.fallback++
			}
		}
		total += c.dist.distance(observed, c.counts)
	}
	paths.sources = runs * len(sizes)
	return total / float64(runs), paths
}

// candidateMargin sets how far past a source's n_j its threshold lies:
// at rank n_j + candidateMargin·(√n_j + 1) of the calibration draw. Two
// draws' counts at a fixed threshold differ by about √(2·n_j), so a
// source rarely falls back to every drawable key
// (TestMonteCarloSelectionPathShares bounds the share at 1%).
const candidateMargin = 4

// takeAll is a candidate limit above every key's bits: every drawable
// key is a candidate.
const takeAll = math.MaxInt64

// mcCell is one grid cell's simulation state: its weights, the buffers
// every simulated source reuses, and the RNG. cellPool recycles them
// across cells and estimates.
type mcCell struct {
	weights  []float64
	runs     [][2]int // maximal runs [a, b) of positive weights
	drawable []int    // the indexes of the positive weights, ascending
	keys     []float64
	cand     []int
	scratch  []int64
	counts   []int
	lims     []int64 // each source's candidate limit, from calibrate
	dist     profileDistance
	rng      randx.Source
}

var cellPool = sync.Pool{New: func() any { return new(mcCell) }}

// reset sizes c for a cell of thetaN items with skew lambda. It reports
// false when the cell cannot be simulated: a non-finite weight or none
// positive.
func (c *mcCell) reset(thetaN int, lambda float64) bool {
	c.weights = resize(c.weights, thetaN)
	randx.FillExponentialWeights(c.weights, lambda)
	return c.index()
}

// index finds the runs of positive weights and sizes the buffers. Like
// reset, it reports false for a non-finite weight or none positive.
func (c *mcCell) index() bool {
	thetaN := len(c.weights)
	c.runs, c.drawable = c.runs[:0], c.drawable[:0]
	for i, w := range c.weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return false
		}
		if w == 0 {
			continue
		}
		if n := len(c.runs); n > 0 && c.runs[n-1][1] == i {
			c.runs[n-1][1]++
		} else {
			c.runs = append(c.runs, [2]int{i, i + 1})
		}
		c.drawable = append(c.drawable, i)
	}
	if len(c.drawable) == 0 {
		return false
	}
	// Keys of zero weights are never filled nor read.
	c.keys = resize(c.keys, thetaN)
	c.cand = resize(c.cand, thetaN)
	c.scratch = resize(c.scratch, thetaN)
	c.counts = resize(c.counts, thetaN)
	return true
}

// resize returns a slice of length n, reusing s's array when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// draw fills the keys with one source's exponential draws, in index
// order, one batch per run of positive weights.
func (c *mcCell) draw() {
	for _, r := range c.runs {
		c.rng.ExpFloat64s(c.keys[r[0]:r[1]])
	}
}

// selectSource divides the drawn keys by their weights in place, listing
// as candidates the keys whose bits are below lim, and adds one to the
// counts of the source's nj smallest keys. It reports whether it fell
// back to every drawable key because fewer than nj were candidates.
func (c *mcCell) selectSource(nj int, lim int64) (fellBack bool) {
	keys, cand := c.keys, c.cand
	nc := 0
	for _, r := range c.runs {
		for i := r[0]; i < r[1]; i++ {
			k := keys[i] / c.weights[i]
			keys[i] = k
			cand[nc] = i
			nc += int(uint64(int64(math.Float64bits(k))-lim) >> 63)
		}
	}
	idx := cand[:nc]
	if nc < nj && nc < len(c.drawable) {
		idx, fellBack = c.drawable, true
	}
	countSmallest(keys, idx, c.scratch, c.counts, nj)
	return fellBack
}

// calibrate sets each source's candidate limit from the divided keys of
// the cell's first draw: just above the key at rank n_j +
// candidateMargin·(√n_j + 1). A source whose rank reaches half the items
// (or exceeds the drawable ones) takes every key, since a filter saves
// little there.
func (c *mcCell) calibrate(sizes []int) {
	// The limits first hold each source's rank, 0 for every key.
	c.lims = c.lims[:0]
	top := 0
	for _, nj := range sizes {
		rank := nj + int(candidateMargin*(math.Sqrt(float64(nj))+1))
		if 2*rank >= len(c.keys) || rank > len(c.drawable) {
			rank = 0
		}
		top = max(top, rank)
		c.lims = append(c.lims, int64(rank))
	}
	// Only the top smallest keys are read: select them, then sort them.
	sorted := c.scratch[:top]
	if top > 0 {
		bits := c.scratch[:len(c.drawable)]
		for k, i := range c.drawable {
			bits[k] = int64(math.Float64bits(c.keys[i]))
		}
		nthSmallest(bits, top-1)
		slices.Sort(sorted)
	}
	for j, rank := range c.lims {
		c.lims[j] = takeAll
		if rank > 0 {
			c.lims[j] = sorted[rank-1] + 1
		}
	}
}

// countSmallest adds one to counts[i] for each of the nj smallest keys
// among keys[idx[0]], keys[idx[1]], ..., ranked by (key, index), except
// that +Inf keys are never counted. idx must be ascending. Keys must be
// >= 0 or +Inf: their IEEE bits then order like their values, so the
// selection runs on int64 bit patterns. scratch (at least len(idx) long)
// is overwritten.
//
// It finds the nj-th smallest key t by quickselect on a copy of the keys,
// then one branch-free pass counts every key <= t. When more than nj keys
// are <= t, the excess are keys equal to t, and a backward pass takes the
// count back from the highest indexes among them, so the lower index wins
// a tie. An infinite t counts only the finite keys below it.
func countSmallest(keys []float64, idx []int, scratch []int64, counts []int, nj int) {
	if nj <= 0 {
		return
	}
	// Every key whose bits are below lim is counted.
	lim := int64(math.Float64bits(math.Inf(1)))
	if nj < len(idx) {
		bits := scratch[:len(idx)]
		for k, i := range idx {
			bits[k] = int64(math.Float64bits(keys[i]))
		}
		if t := nthSmallest(bits, nj-1); t < lim {
			lim = t + 1
		}
	}
	taken := 0
	for _, i := range idx {
		below := int(uint64(int64(math.Float64bits(keys[i]))-lim) >> 63)
		counts[i] += below
		taken += below
	}
	t := math.Float64frombits(uint64(lim - 1))
	for k := len(idx) - 1; taken > nj; k-- {
		if i := idx[k]; keys[i] == t {
			counts[i]--
			taken--
		}
	}
}

// nthSmallest permutes xs and returns its k-th smallest value (0-based).
// It is a quickselect with median-of-three pivots and a branch-free
// Lomuto partition, O(len(xs)) expected. Lomuto degrades to quadratic on
// runs of equal values (such as the +Inf keys of underflowed weights), so
// past a depth limit it sorts the remaining range, which bounds the worst
// case at O(n log n).
func nthSmallest(xs []int64, k int) int64 {
	lo, hi := 0, len(xs)-1 // xs[k] lies in [lo, hi]
	for depth := 2 * bits.Len(uint(len(xs))); hi > lo; depth-- {
		if depth == 0 {
			slices.Sort(xs[lo : hi+1])
			break
		}
		// Median of three to xs[hi] as the pivot.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[mid] < xs[hi] {
			xs[mid], xs[hi] = xs[hi], xs[mid]
		}
		p := xs[hi]
		// Lomuto: xs[lo:i] < p <= xs[i:j]. Every element is swapped to
		// xs[i], and i advances past it when it is below the pivot. The
		// subtraction cannot overflow: the values are non-negative.
		part := xs[lo:hi]
		i := 0
		for j, x := range part {
			part[j] = part[i]
			part[i] = x
			i += int(uint64(x-p) >> 63)
		}
		i += lo
		xs[hi] = xs[i]
		xs[i] = p
		switch {
		case i == k:
			return p
		case i < k:
			lo = i + 1
		default:
			hi = i - 1
		}
	}
	return xs[k]
}

// profileDistance indexes the observed and simulated occurrence profiles
// against each other (Algorithm 2's "indexing" step): both are sorted
// descending, padded to a common length — so the i-th most frequent
// observed entity is compared with the i-th most frequent simulated one —
// smoothed, normalized, and compared with KL divergence D(F'_S || F_Q).
// Simulated counts are at most the number of sources, so the simulated
// profile is sorted by a counting sort. The zero value is ready to use;
// its buffers grow on demand and are reused across runs. The result is
// bitwise that of stats.SmoothedKLDivergence over the padded profiles.
type profileDistance struct {
	hist   []int
	fs, fq []float64
}

func (d *profileDistance) distance(observed []int, simulated []int) float64 {
	maxCount := 0
	for _, v := range simulated {
		maxCount = max(maxCount, v)
	}
	if cap(d.hist) <= maxCount {
		d.hist = make([]int, maxCount+1)
	}
	hist := d.hist[:maxCount+1]
	clear(hist)
	for _, v := range simulated {
		hist[v]++
	}
	// Unseen simulated items (count 0) are trimmed.
	simLen := len(simulated) - hist[0]

	width := max(len(observed), simLen)
	if width == 0 {
		return 0
	}
	if cap(d.fs) < width {
		d.fs, d.fq = make([]float64, width), make([]float64, width)
	}
	fs, fq := d.fs[:width], d.fq[:width]
	// Smooth as stats.SmoothedKLDivergence does: every empty (padding)
	// cell gets the default epsilon.
	const eps = stats.DefaultSmoothingEpsilon
	for i := range fs {
		fs[i] = eps
		if i < len(observed) && observed[i] > 0 {
			fs[i] = float64(observed[i])
		}
	}
	i := 0
	for v := maxCount; v > 0; v-- {
		for n := hist[v]; n > 0; n-- {
			fq[i] = float64(v)
			i++
		}
	}
	for ; i < width; i++ {
		fq[i] = eps
	}
	return normalizedKL(fs, fq)
}

// normalizedKL returns stats.KLDivergence(stats.Normalize(fs),
// stats.Normalize(fq)) bitwise, for equal-length fs and fq with no
// negative entries, without normalizing either. Each term p·log(p/q)
// depends only on the pair (fs[i], fq[i]), and sorted profiles repeat a
// handful of values, so a term is computed once per run of equal pairs
// and added once per element, in index order. Unsorted input is only
// slower.
func normalizedKL(fs, fq []float64) float64 {
	sumS, sumQ := stats.Sum(fs), stats.Sum(fq)
	var d, term float64
	for i := range fs {
		if i > 0 && fs[i] == fs[i-1] && fq[i] == fq[i-1] {
			d += term
			continue
		}
		p, q := share(fs[i], sumS, len(fs)), share(fq[i], sumQ, len(fq))
		switch {
		case p == 0:
			term = 0
		case q == 0:
			return math.Inf(1)
		default:
			term = p * math.Log(p/q)
		}
		d += term
	}
	// stats.KLDivergence's clamp of a rounding-negative zero.
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d
}

// share is x / sum, as stats.Normalize computes it, with its uniform
// fallback 1/n for a non-positive or non-finite sum.
func share(x, sum float64, n int) float64 {
	if sum <= 0 || math.IsInf(sum, 0) || math.IsNaN(sum) {
		return 1 / float64(n)
	}
	return x / sum
}
