package core

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/freqstats"
	"repro/internal/randx"
	"repro/internal/sim"
)

// mixStream is the estimate-mix population: 10,000 entities (λ=1, ρ=0.5)
// seen by ten interleaved sources, one of 4,000 and nine of 889, with each
// entity given a seeded rank that plays the role of the workload's range
// key. Built once and shared read-only by the fixtures below.
var mixStream = sync.OnceValues(func() (*sim.Stream, map[string]int) {
	g, err := sim.NewGroundTruth(randx.New(2016), sim.Config{N: 10000, Lambda: 1, Rho: 0.5})
	if err != nil {
		panic(err)
	}
	sizes := []int{4000}
	for i := 0; i < 9; i++ {
		sizes = append(sizes, 889)
	}
	st, err := sim.Integrate(randx.New(2017), g, sim.IntegrationConfig{SourceSizes: sizes, Interleave: true})
	if err != nil {
		panic(err)
	}
	rank := make(map[string]int, g.N())
	for i, r := range randx.New(2018).Perm(g.N()) {
		rank[g.Items[i].ID] = r
	}
	return st, rank
})

// mixSample returns the estimate-mix-shaped sub-sample of exactly c
// observed entities: every observation whose entity ranks below the rank
// of the c-th observed entity, in arrival order (a `k BETWEEN 0 AND r`
// range predicate).
func mixSample(tb testing.TB, c int) *freqstats.Sample {
	tb.Helper()
	st, rank := mixStream()
	seen := map[string]bool{}
	var ranks []int
	for _, o := range st.Observations {
		if !seen[o.EntityID] {
			seen[o.EntityID] = true
			ranks = append(ranks, rank[o.EntityID])
		}
	}
	if c > len(ranks) {
		tb.Fatalf("mixSample: only %d observed entities, want %d", len(ranks), c)
	}
	sort.Ints(ranks)
	limit := ranks[c-1]
	s := freqstats.NewSample()
	for _, o := range st.Observations {
		if rank[o.EntityID] <= limit {
			if err := s.Add(o); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if s.C() != c {
		tb.Fatalf("mixSample: c = %d, want %d", s.C(), c)
	}
	return s
}

// streakerSample is a streaker prefix (Section 6.3): twenty sources of
// twenty over a 400-entity population, with an exhaustive streaker
// injected after 100 observations, cut 300 observations in — halfway
// through the streaker, so Chao92 is inflated and Monte-Carlo has a range
// to search.
func streakerSample(tb testing.TB) *freqstats.Sample {
	tb.Helper()
	g, err := sim.NewGroundTruth(randx.New(21), sim.Config{N: 400, Lambda: 1, Rho: 1})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(22), g, sim.IntegrationConfig{NumSources: 20, SourceSize: 20, Interleave: true})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sim.InjectStreaker(st, g, 100, "streaker").Prefix(300)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}
