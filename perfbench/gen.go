package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// entity is one ground-truth entity with every attribute column assigned
// from the seed, so entities no source ever observed carry values too and
// the population answer of any predicate is known.
type entity struct {
	id     string
	v      float64
	k      float64 // estimate-mix range key (a seeded permutation rank)
	cat    string  // drilldown category, 400 values
	region string  // 10 values
}

// obsRow is one observation: entity index and source index.
type obsRow struct {
	ent int32
	src int16
}

// clause is one conjunct of a WHERE predicate: its SQL text and the same
// test evaluated on the generator's side.
type clause struct {
	sql   string
	match func(e *entity) bool
}

// predicate is a conjunction of clauses.
type predicate struct {
	clauses []clause
}

func (p *predicate) sql() string {
	parts := make([]string, len(p.clauses))
	for i, c := range p.clauses {
		parts[i] = c.sql
	}
	return strings.Join(parts, " AND ")
}

func (p *predicate) match(e *entity) bool {
	for _, c := range p.clauses {
		if !c.match(e) {
			return false
		}
	}
	return true
}

// request is one query of a workload's request sequence.
type request struct {
	sql     string
	agg     string // SUM COUNT AVG MIN MAX MEDIAN
	groupBy bool   // GROUP BY region
	pred    int    // index into workload.preds
	band    int    // estimate-mix sample-size band (0 small, 1 large), -1 otherwise
}

// workload is the fully generated input of one run: population, source
// observations in arrival order, pre-encoded ingest batches, predicates
// and the request sequence.
type workload struct {
	name     string
	seed     int64
	schema   []map[string]string
	ents     []entity
	sources  []string
	rows     []obsRow
	preload  int // rows loaded during setup; the rest is streamed
	batchLen int
	batches  [][]byte // NDJSON bodies of batchLen rows each, rows[0:] in order
	preds    []*predicate
	matches  [][]int32 // population entity indexes matching each predicate
	seq      []request
	warmup   []request
	// probe scores ingest-requery's estimate_rel_err: MEDIAN queries run
	// untimed on the final state.
	probe []request
	// digestN is the request-ID prefix the behaviour digest and
	// estimate_rel_err cover; a run that did not reach its end in the
	// timed phase completes it untimed, so both are fixed per seed.
	digestN int
	// setups is how many times a run sets the daemon up; setup_s is
	// their median.
	setups int
	// windows splits a read-only timed phase into equal stretches whose
	// per-stretch statistics are reported as their median.
	windows int
	// backend flags passed to uuserve.
	disk bool
}

const tableName = "obs"

var regions = func() []string {
	out := make([]string, 10)
	for i := range out {
		out[i] = fmt.Sprintf("r%d", i)
	}
	return out
}()

// catName renders category c in [0, 400): a letter a..t and two digits,
// so LIKE 'p%' selects 20 categories and LIKE 'p1%' selects 10.
func catName(c int) string { return fmt.Sprintf("%c%02d", 'a'+c/20, c%20) }

// groundTruth builds the seeded sim.GroundTruth and assigns the attribute
// columns per entity index.
func groundTruth(rng *rand.Rand, n int) (*sim.GroundTruth, []entity, error) {
	gt, err := sim.NewGroundTruth(rng, sim.Config{N: n, Lambda: 1, Rho: 0.5})
	if err != nil {
		return nil, nil, err
	}
	perm := rng.Perm(n)
	ents := make([]entity, n)
	for i, it := range gt.Items {
		ents[i] = entity{
			id:     it.ID,
			v:      it.Value,
			k:      float64(perm[i]),
			cat:    catName(rng.Intn(400)),
			region: regions[rng.Intn(len(regions))],
		}
	}
	return gt, ents, nil
}

// drawSources samples each source from the ground truth (without
// replacement, proportional to publicity) and returns the observations
// source by source.
func drawSources(rng *rand.Rand, gt *sim.GroundTruth, sizes []int) ([]string, []obsRow, error) {
	index := make(map[string]int32, gt.N())
	for i, it := range gt.Items {
		index[it.ID] = int32(i)
	}
	var names []string
	var rows []obsRow
	for s, size := range sizes {
		name := fmt.Sprintf("s%02d", s)
		names = append(names, name)
		obs, err := gt.SampleSource(rng, name, size)
		if err != nil {
			return nil, nil, err
		}
		for _, o := range obs {
			rows = append(rows, obsRow{ent: index[o.EntityID], src: int16(s)})
		}
	}
	return names, rows, nil
}

// datasetSeed seeds every workload's ground truth and source draws. The
// run's --seed drives the traffic (predicates, request order and mix), so
// runs with different seeds query the same data and their spread measures
// the system rather than how hard one population happens to be.
const datasetSeed = 2016

func generate(name string, seed int64) (*workload, error) {
	data, traffic := rand.New(rand.NewSource(datasetSeed)), rand.New(rand.NewSource(seed))
	switch name {
	case "estimate-mix":
		return genEstimateMix(data, traffic, seed)
	case "drilldown-extremes":
		return genDrilldown(data, traffic, seed, false)
	case "ingest-requery":
		return genDrilldown(data, traffic, seed, true)
	}
	return nil, fmt.Errorf("unknown workload %q (want estimate-mix, drilldown-extremes or ingest-requery)", name)
}

// genEstimateMix builds the estimator-bound workload: 10,000 entities,
// ten sources of uneven size (one about 4.5x each of the others, close to
// the streaker threshold) and distinct default-estimator queries over
// two sample-size bands.
func genEstimateMix(data, rng *rand.Rand, seed int64) (*workload, error) {
	const n = 10000
	gt, ents, err := groundTruth(data, n)
	if err != nil {
		return nil, err
	}
	sizes := []int{4000}
	for i := 0; i < 9; i++ {
		sizes = append(sizes, 889)
	}
	srcs, rows, err := drawSources(data, gt, sizes)
	if err != nil {
		return nil, err
	}
	data.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	w := &workload{
		name: "estimate-mix", seed: seed, ents: ents, sources: srcs, rows: rows,
		preload: len(rows), batchLen: 250, setups: 9, windows: 1,
		schema: []map[string]string{{"name": "v", "type": "float"}, {"name": "k", "type": "float"}, {"name": "region", "type": "string"}},
	}
	// byK lists the entity indexes in k order and observed marks the
	// observed ones, so a band's predicate is sized on observed entities
	// exactly.
	observed := make([]bool, n)
	for _, r := range rows {
		observed[r.ent] = true
	}
	byK := make([]int32, n)
	for i, e := range ents {
		byK[int(e.k)] = int32(i)
	}
	bandSizes := [2][2]int{{100, 300}, {600, 900}}
	used := map[string]bool{}
	mkRange := func(target int) *predicate {
		for {
			lo := rng.Intn(n)
			hi, seen := lo, 0
			for ; hi < n && seen < target; hi++ {
				if observed[byK[hi]] {
					seen++
				}
			}
			if seen < target {
				continue
			}
			hi-- // inclusive upper bound: the last entity counted
			key := fmt.Sprintf("%d-%d", lo, hi)
			if used[key] {
				continue
			}
			used[key] = true
			flo, fhi := float64(lo), float64(hi)
			return &predicate{clauses: []clause{{
				sql:   fmt.Sprintf("k BETWEEN %d AND %d", lo, hi),
				match: func(e *entity) bool { return e.k >= flo && e.k <= fhi },
			}}}
		}
	}
	add := func(list *[]request, agg string, group bool, band, target int) {
		p := mkRange(target)
		w.preds = append(w.preds, p)
		attr := "v"
		if agg == "COUNT" {
			attr = "*"
		}
		sql := fmt.Sprintf("SELECT %s(%s) FROM %s WHERE %s", agg, attr, tableName, p.sql())
		if group {
			sql += " GROUP BY region"
		}
		*list = append(*list, request{sql: sql, agg: agg, groupBy: group, pred: len(w.preds) - 1, band: band})
	}
	for i := 0; i < 2; i++ {
		add(&w.warmup, "SUM", false, 0, bandSizes[0][0])
	}
	// The mix is stratified in blocks of 40 requests (24 SUM, 8 COUNT,
	// 4 AVG, 4 grouped SUM; 30 small-band and 10 large-band predicates
	// whose sample sizes are spread evenly over their band), so every
	// run's prefix has the same proportions and sample sizes. Three of
	// four queries use the small band: the median then sits inside the
	// small-band cluster and p90 inside the large-band one, instead of
	// either straddling the gap between the two.
	for len(w.seq) < 1500 {
		kinds := rng.Perm(40)
		slots := rng.Perm(40) // slot < 30: small band, else large
		for i, k := range kinds {
			band, pos, of := 0, slots[i], 30
			if pos >= 30 {
				band, pos, of = 1, pos-30, 10
			}
			lo, hi := bandSizes[band][0], bandSizes[band][1]
			target := lo + (2*pos+1)*(hi-lo)/(2*of)
			switch {
			case k < 24:
				add(&w.seq, "SUM", false, band, target)
			case k < 32:
				add(&w.seq, "COUNT", false, band, target)
			case k < 36:
				add(&w.seq, "AVG", false, band, target)
			default:
				add(&w.seq, "SUM", true, band, target)
			}
		}
	}
	w.digestN = 100
	w.finish()
	return w, nil
}

// genDrilldown builds the scan-bound shape shared by drilldown-extremes
// and ingest-requery: 100,000 entities, 20 sources of 20,000, columns cat
// (400 strings), region (10 strings) and v, queried with MIN, MAX and
// MEDIAN under string and numeric predicates.
func genDrilldown(data, rng *rand.Rand, seed int64, ingest bool) (*workload, error) {
	const n = 100000
	gt, ents, err := groundTruth(data, n)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, 20)
	for i := range sizes {
		sizes[i] = 20000
	}
	srcs, rows, err := drawSources(data, gt, sizes)
	if err != nil {
		return nil, err
	}
	data.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	w := &workload{
		name: "drilldown-extremes", seed: seed, ents: ents, sources: srcs, rows: rows,
		preload: len(rows), batchLen: 250, setups: 3, windows: 3,
		schema: []map[string]string{{"name": "cat", "type": "string"}, {"name": "region", "type": "string"}, {"name": "v", "type": "float"}},
	}
	if ingest {
		w.name, w.preload, w.disk = "ingest-requery", 100000, true
	}
	maxV := float64(10 * n)
	vRange := func(frac float64) clause {
		width := float64(int(frac*maxV/10)) * 10
		lo := float64(rng.Intn(int((maxV-width)/10))) * 10
		hi := lo + width
		return clause{
			sql:   fmt.Sprintf("v BETWEEN %g AND %g", lo, hi),
			match: func(e *entity) bool { return e.v >= lo && e.v <= hi },
		}
	}
	randCat := func() string { return catName(rng.Intn(400)) }
	catEq := func() clause {
		c := randCat()
		return clause{sql: fmt.Sprintf("cat = '%s'", c), match: func(e *entity) bool { return e.cat == c }}
	}
	catIn := func() clause {
		set := map[string]bool{}
		for len(set) < 3 {
			set[randCat()] = true
		}
		names := make([]string, 0, 3)
		for c := range set {
			names = append(names, c)
		}
		sort.Strings(names)
		return clause{
			sql:   fmt.Sprintf("cat IN ('%s')", strings.Join(names, "', '")),
			match: func(e *entity) bool { return set[e.cat] },
		}
	}
	catLike := func(twoChars bool) clause {
		prefix := string(rune('a' + rng.Intn(20)))
		if twoChars {
			prefix += string(rune('0' + rng.Intn(2)))
		}
		return clause{
			sql:   fmt.Sprintf("cat LIKE '%s%%'", prefix),
			match: func(e *entity) bool { return strings.HasPrefix(e.cat, prefix) },
		}
	}
	regionEq := func() clause {
		r := regions[rng.Intn(len(regions))]
		return clause{sql: fmt.Sprintf("region = '%s'", r), match: func(e *entity) bool { return e.region == r }}
	}
	regionIn := func() clause {
		a := rng.Intn(len(regions))
		b := (a + 1 + rng.Intn(len(regions)-1)) % len(regions)
		ra, rb := regions[a], regions[b]
		return clause{
			sql:   fmt.Sprintf("region IN ('%s', '%s')", ra, rb),
			match: func(e *entity) bool { return e.region == ra || e.region == rb },
		}
	}
	// Predicate kinds rotate in a fixed order, so every pool and
	// dashboard holds the same mix of selectivities whatever the seed.
	mkPred := func(kind int) *predicate {
		switch kind % 5 {
		case 0:
			return &predicate{clauses: []clause{catEq()}}
		case 1:
			return &predicate{clauses: []clause{catIn()}}
		case 2:
			return &predicate{clauses: []clause{catLike(true), regionEq()}}
		case 3:
			return &predicate{clauses: []clause{regionIn(), vRange(0.05)}}
		default:
			return &predicate{clauses: []clause{catLike(false), vRange(0.2)}}
		}
	}
	// ingest-requery's pool is its 8-predicate dashboard followed by the
	// predicates of its accuracy probe.
	poolSize := 1024
	if ingest {
		poolSize = 8 + 500
	}
	seen := map[string]bool{}
	for len(w.preds) < poolSize {
		p := mkPred(len(w.preds))
		if seen[p.sql()] {
			continue
		}
		seen[p.sql()] = true
		w.preds = append(w.preds, p)
	}
	extremes := []string{"MIN", "MAX", "MEDIAN"}
	query := func(pi int, agg string) request {
		return request{
			sql: fmt.Sprintf("SELECT %s(v) FROM %s WHERE %s", agg, tableName, w.preds[pi].sql()),
			agg: agg, pred: pi, band: -1,
		}
	}
	if ingest {
		// The dashboard loops in order; the sequence is one pass of it.
		for pi := range 8 {
			for _, agg := range extremes {
				w.seq = append(w.seq, query(pi, agg))
			}
		}
		for pi := 8; pi < len(w.preds); pi++ {
			w.probe = append(w.probe, query(pi, "MEDIAN"))
		}
		w.warmup = w.seq
		w.digestN = len(w.seq)
	} else {
		// Warm-up touches the table with predicates outside the pool.
		for i, r := range regions[:4] {
			w.warmup = append(w.warmup, request{
				sql: fmt.Sprintf("SELECT %s(v) FROM %s WHERE region = '%s'", extremes[i%3], tableName, r),
				agg: extremes[i%3], pred: -1, band: -1,
			})
		}
		for len(w.seq) < 60000 {
			pi := rng.Intn(len(w.preds))
			for _, agg := range extremes {
				w.seq = append(w.seq, query(pi, agg))
			}
		}
		w.digestN = 3000
	}
	w.finish()
	return w, nil
}

// finish precomputes each predicate's matching population entities and
// encodes the ingest batches.
func (w *workload) finish() {
	w.matches = make([][]int32, len(w.preds))
	for pi, p := range w.preds {
		for i := range w.ents {
			if p.match(&w.ents[i]) {
				w.matches[pi] = append(w.matches[pi], int32(i))
			}
		}
	}
	type line struct {
		Entity string         `json:"entity"`
		Source string         `json:"source"`
		Attrs  map[string]any `json:"attrs"`
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for start := 0; start < len(w.rows); start += w.batchLen {
		end := min(start+w.batchLen, len(w.rows))
		buf.Reset()
		for _, r := range w.rows[start:end] {
			e := &w.ents[r.ent]
			attrs := map[string]any{"v": e.v, "region": e.region}
			if w.name == "estimate-mix" {
				attrs["k"] = e.k
			} else {
				attrs["cat"] = e.cat
			}
			enc.Encode(line{Entity: e.id, Source: w.sources[r.src], Attrs: attrs})
		}
		w.batches = append(w.batches, bytes.Clone(buf.Bytes()))
	}
}

// preloadBatches is the number of batches loaded during setup.
func (w *workload) preloadBatches() int { return (w.preload + w.batchLen - 1) / w.batchLen }

// observedMask marks the entities present in the first nrows observations.
func (w *workload) observedMask(nrows int) []bool {
	m := make([]bool, len(w.ents))
	for _, r := range w.rows[:nrows] {
		m[r.ent] = true
	}
	return m
}

// answer is the closed-world (observed) or population answer of one
// aggregate over a set of entity values.
func answer(agg string, vals []float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	switch agg {
	case "COUNT":
		return float64(len(vals)), true
	case "SUM", "AVG":
		var s float64
		for _, v := range vals {
			s += v
		}
		if agg == "AVG" {
			s /= float64(len(vals))
		}
		return s, true
	case "MIN", "MAX":
		m := vals[0]
		for _, v := range vals[1:] {
			if (agg == "MIN" && v < m) || (agg == "MAX" && v > m) {
				m = v
			}
		}
		return m, true
	case "MEDIAN":
		return stats.Quantile(vals, 0.5), true
	}
	return 0, false
}

// expected computes the answer of request r over the entities selected by
// mask (nil = the whole population), per region when the request groups.
func (w *workload) expected(r request, mask []bool) map[string]float64 {
	vals := map[string][]float64{}
	for _, ei := range w.matches[r.pred] {
		if mask != nil && !mask[ei] {
			continue
		}
		e := &w.ents[ei]
		key := ""
		if r.groupBy {
			key = e.region
		}
		vals[key] = append(vals[key], e.v)
	}
	out := make(map[string]float64, len(vals))
	for key, vs := range vals {
		if a, ok := answer(r.agg, vs); ok {
			out[key] = a
		}
	}
	return out
}
