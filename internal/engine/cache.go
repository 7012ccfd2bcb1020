package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

// Query caching. Three layers, from cheapest to broadest:
//
//  1. Compiled-filter programs. A filterProgram is a pure function of
//     (schema, canonical predicate text); the schema is fixed at table
//     creation, so per table each predicate compiles exactly once and is
//     shared by every subsequent query (programs are stateless at eval
//     time). The cache carries the table's schema version so a future
//     ALTER TABLE only has to bump the version to invalidate everything.
//  2. Per-shard selection bitmaps. The bitmap a program produces over a
//     shard depends only on the shard's rows, which change exactly when
//     the shard's write epoch changes: every mutating Insert bumps the
//     epoch under the shard's write lock, and every applied ingestion
//     batch bumps it once for the whole batch (ingest.go) — under
//     streaming writes a shard's caches are invalidated per batch, not
//     per row, so between batch applications repeated queries keep
//     hitting. Staged-but-unapplied rows do not move the epoch: they are
//     invisible to scans, so a cached bitmap or result is still exact for
//     the data a scan would see. A cached bitmap therefore stays valid
//     while `built-at epoch == current epoch`, is shared across scans
//     within a query (Sample + GroupedSamples on the same WHERE) and
//     across repeated queries, and is never served once its epoch is
//     stale (the rebuild replaces it). Cached bitmaps are immutable once
//     published.
//  3. Per-shard sample partials. One step past the bitmap layer: where a
//     cached bitmap saves re-evaluating the predicate over a clean shard,
//     a cached partial (freqstats.Partial, frozen at publication) saves
//     the whole scan — gather, lineage copy and all — leaving only the
//     k-way merge and the estimators. Keyed by (predicate, aggregate
//     attribute, shard) under the same exact-epoch serve rule as bitmaps:
//     valid while `built-at epoch == current epoch`, replaced by the
//     rebuild once its epoch is stale. This is what makes repeated queries
//     incremental: after an ingest batch dirties one shard, the next run
//     rescans that shard alone and re-merges it with 15 cached partials.
//     Cached partials are immutable (frozen) and shared read-only across
//     concurrent merges.
//  4. Whole query results (executor level, opt-in — see resultCache in
//     executor.go wiring). Keyed by (table identity, canonical SQL,
//     estimator configuration) plus the full vector of shard epochs
//     captured during the scan, so a hit is only possible when not a
//     single observation changed since the cached run.
//
// All layers are safe for concurrent use and bounded: programs by entry
// count with LRU eviction; bitmaps, partials and results by an
// approximate byte budget, each in a segmented LRU (segLRU, slru.go) that
// admits new entries to a probation segment of 1/8 of the budget and
// protects entries that have been hit. Byte counts in CacheStats cover
// both segments.

// Default cache bounds for new tables.
const (
	defaultProgramCacheEntries = 128
	defaultBitmapCacheBytes    = 8 << 20  // 8 MiB of selection bitmaps per table
	defaultPartialCacheBytes   = 16 << 20 // 16 MiB of sample partials per table
)

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Table.CacheStats fills the program/bitmap layers; DB.CacheStats
// aggregates every table and adds the result layer.
type CacheStats struct {
	ProgramHits, ProgramMisses uint64
	BitmapHits, BitmapMisses   uint64
	BitmapEvictions            uint64
	BitmapBytes                int
	// Partial* count the per-shard sample-partial layer: a hit is one
	// shard whose scan was skipped entirely because its cached partial was
	// built at the shard's current epoch. A query over a table with one
	// dirty shard therefore accounts numShards-1 hits and 1 miss.
	PartialHits, PartialMisses uint64
	PartialEvictions           uint64
	PartialBytes               int
	ResultHits, ResultMisses   uint64
	ResultEvictions            uint64
	ResultBytes                int
	// FilterHits/FilterMisses count the executor's per-query sample-filter
	// cache (freqstats.FilterCache): bucket sub-range samples shared across
	// estimator passes vs built fresh. Unlike the other layers the cache
	// itself lives only for one query; the counters accumulate on the DB.
	FilterHits, FilterMisses uint64
	// DictEntries/DictBytes snapshot the string-dictionary footprint: the
	// total cardinality (distinct interned strings, summed over shards —
	// every shard pre-interns the empty string) and the resident bytes of
	// the interned string data. Not a cache — dictionaries are append-only
	// and never evict — but they are resident memory the dictionary
	// encoding trades for the scan speedup, so they report alongside the
	// cache budgets.
	DictEntries int
	DictBytes   int64
}

// add accumulates other into s (for DB-level aggregation).
func (s *CacheStats) add(other CacheStats) {
	s.ProgramHits += other.ProgramHits
	s.ProgramMisses += other.ProgramMisses
	s.BitmapHits += other.BitmapHits
	s.BitmapMisses += other.BitmapMisses
	s.BitmapEvictions += other.BitmapEvictions
	s.BitmapBytes += other.BitmapBytes
	s.PartialHits += other.PartialHits
	s.PartialMisses += other.PartialMisses
	s.PartialEvictions += other.PartialEvictions
	s.PartialBytes += other.PartialBytes
	s.ResultHits += other.ResultHits
	s.ResultMisses += other.ResultMisses
	s.ResultEvictions += other.ResultEvictions
	s.ResultBytes += other.ResultBytes
	s.FilterHits += other.FilterHits
	s.FilterMisses += other.FilterMisses
	s.DictEntries += other.DictEntries
	s.DictBytes += other.DictBytes
}

// filterKey canonicalizes a predicate for cache keys. Expr.String renders
// the parse tree back to SQL deterministically, so structurally equal
// predicates share one key regardless of which query object they came
// from. nil (keep everything) canonicalizes to "".
func filterKey(e sqlparse.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

// bitmapKey addresses one shard's selection bitmap for one predicate.
type bitmapKey struct {
	expr  string
	shard int
}

// partialKey addresses one shard's sample partial for one (predicate,
// aggregate attribute) pair. The attribute is part of the key because the
// partial embeds the gathered values — the same predicate aggregated over
// a different column is a different partial ("" is the COUNT(*) form).
type partialKey struct {
	expr  string
	attr  string
	shard int
}

type progEntry struct {
	key  string
	prog *filterProgram
}

// atEpoch is a cached per-shard value (a bitmap or a frozen partial,
// immutable once stored) with the shard epoch it was built at.
type atEpoch[T any] struct {
	epoch uint64
	val   T
}

// lookupAtEpoch returns l's value for k if it was built at exactly the
// given epoch, counting the hit. A stale entry (its epoch can never match
// again — epochs only grow) is a miss but stays resident: the scan that
// missed rebuilds the value and its store replaces the entry in place, so
// a key that has earned the protected segment keeps it across writes.
// In-flight scans holding a replaced or evicted value keep their
// reference; it simply stops being findable. The caller holds the cache's
// mutex.
func lookupAtEpoch[K comparable, T any](l *segLRU[K, atEpoch[T]], k K, epoch uint64) (T, bool) {
	ent, ok := l.get(k)
	if !ok || ent.epoch != epoch {
		var zero T
		return zero, false
	}
	l.hit(k)
	return ent.val, true
}

// scanCache is a table's layer-1..3 cache (programs, bitmaps, partials).
// One mutex guards all LRU structures; hit/miss counters are atomics so
// CacheStats reads do not need the lock.
type scanCache struct {
	mu            sync.Mutex
	schemaVersion uint64

	progs    map[string]*list.Element // of *progEntry
	progLRU  list.List
	maxProgs int

	bitmaps  segLRU[bitmapKey, atEpoch[*bitmap]]
	partials segLRU[partialKey, atEpoch[*freqstats.Partial]]

	progHits, progMisses atomic.Uint64
	bmHits, bmMisses     atomic.Uint64
	pHits, pMisses       atomic.Uint64
}

func newScanCache(maxProgs, maxBytes, maxPartBytes int) *scanCache {
	c := &scanCache{progs: make(map[string]*list.Element)}
	c.setLimits(maxProgs, maxBytes, maxPartBytes)
	return c
}

// setLimits reconfigures the bounds; zero disables (and clears) the
// respective layer.
func (c *scanCache) setLimits(maxProgs, maxBytes, maxPartBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxProgs = maxProgs
	c.evictProgramsLocked()
	c.bitmaps.setMaxBytes(maxBytes)
	c.partials.setMaxBytes(maxPartBytes)
}

// bumpSchemaVersion invalidates every layer. Nothing calls it today —
// schemas are immutable after NewTable — but it is the seam an ALTER
// TABLE implementation must go through.
func (c *scanCache) bumpSchemaVersion() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.schemaVersion++
	c.progs = make(map[string]*list.Element)
	c.progLRU.Init()
	c.bitmaps.clear()
	c.partials.clear()
}

// lookupProgram returns the cached compiled program for a predicate key.
func (c *scanCache) lookupProgram(key string) (*filterProgram, bool) {
	c.mu.Lock()
	e, ok := c.progs[key]
	if ok {
		c.progLRU.MoveToFront(e)
	}
	c.mu.Unlock()
	if !ok {
		c.progMisses.Add(1)
		return nil, false
	}
	c.progHits.Add(1)
	return e.Value.(*progEntry).prog, true
}

func (c *scanCache) storeProgram(key string, prog *filterProgram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxProgs <= 0 {
		return
	}
	if e, ok := c.progs[key]; ok {
		// A concurrent miss compiled the same predicate; keep the newer
		// program (they are interchangeable) and just refresh recency.
		e.Value.(*progEntry).prog = prog
		c.progLRU.MoveToFront(e)
		return
	}
	c.progs[key] = c.progLRU.PushFront(&progEntry{key: key, prog: prog})
	c.evictProgramsLocked()
}

// evictProgramsLocked drops least-recently-used programs down to the
// entry bound.
func (c *scanCache) evictProgramsLocked() {
	for c.progLRU.Len() > 0 && c.progLRU.Len() > c.maxProgs {
		oldest := c.progLRU.Back()
		c.progLRU.Remove(oldest)
		delete(c.progs, oldest.Value.(*progEntry).key)
	}
}

// lookupBitmap returns the cached selection bitmap for (key, shard) if it
// was built at exactly the given epoch (see lookupAtEpoch). The returned
// bitmap is shared and must be treated read-only.
func (c *scanCache) lookupBitmap(key string, shard int, epoch uint64) (*bitmap, bool) {
	c.mu.Lock()
	bits, ok := lookupAtEpoch(&c.bitmaps, bitmapKey{expr: key, shard: shard}, epoch)
	c.mu.Unlock()
	if !ok {
		c.bmMisses.Add(1)
		return nil, false
	}
	c.bmHits.Add(1)
	return bits, true
}

// bitmapFootprint is the byte charge for caching an n-bit bitmap.
func bitmapFootprint(nbits int) int {
	return ((nbits+63)/64)*8 + 64
}

// acceptsBitmap reports whether the cache would keep an n-bit bitmap at
// all. Scans consult it before evaluation so that when the answer is no
// (cache disabled, or the shard too large for the budget) they can use a
// pooled scratch bitmap instead of allocating one for the cache to
// reject.
func (c *scanCache) acceptsBitmap(nbits int) bool {
	nbytes := bitmapFootprint(nbits)
	c.mu.Lock()
	defer c.mu.Unlock()
	return nbytes <= c.bitmaps.maxBytes
}

// storeBitmap publishes a freshly computed selection bitmap. The cache
// takes ownership: the caller must not mutate bits afterwards.
func (c *scanCache) storeBitmap(key string, shard int, epoch uint64, bits *bitmap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bitmaps.put(bitmapKey{expr: key, shard: shard}, atEpoch[*bitmap]{epoch, bits}, bitmapFootprint(bits.n))
}

// lookupPartial returns the cached sample partial for a key if it was
// built at exactly the given epoch (see lookupAtEpoch). The returned
// partial is frozen and shared; callers merge from it read-only and must
// not release it to the scan pool (releaseSamplePart skips frozen
// partials).
func (c *scanCache) lookupPartial(k partialKey, epoch uint64) (*freqstats.Partial, bool) {
	c.mu.Lock()
	p, ok := lookupAtEpoch(&c.partials, k, epoch)
	c.mu.Unlock()
	if !ok {
		c.pMisses.Add(1)
		return nil, false
	}
	c.pHits.Add(1)
	return p, true
}

// acceptsPartial reports whether the cache would keep a partial of the
// given footprint. Scans consult it before freezing a fresh partial: when
// the answer is no (layer disabled, or the partial alone over budget) the
// partial stays mutable and poolable.
func (c *scanCache) acceptsPartial(nbytes int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nbytes <= c.partials.maxBytes
}

// storePartial publishes a frozen sample partial. The partial must be
// frozen (immutable) before the call; from here on it may be shared by
// any number of concurrent merges.
func (c *scanCache) storePartial(k partialKey, epoch uint64, p *freqstats.Partial) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partials.put(k, atEpoch[*freqstats.Partial]{epoch, p}, p.FootprintBytes())
}

// stats snapshots the scan-layer counters.
func (c *scanCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		ProgramHits:      c.progHits.Load(),
		ProgramMisses:    c.progMisses.Load(),
		BitmapHits:       c.bmHits.Load(),
		BitmapMisses:     c.bmMisses.Load(),
		BitmapEvictions:  c.bitmaps.evictions,
		BitmapBytes:      c.bitmaps.bytes(),
		PartialHits:      c.pHits.Load(),
		PartialMisses:    c.pMisses.Load(),
		PartialEvictions: c.partials.evictions,
		PartialBytes:     c.partials.bytes(),
	}
}

// resultKey identifies a whole-query result: which table object (the id
// survives DROP + re-CREATE under the same name), which canonical query,
// which estimator configuration, and the exact shard epochs the scan ran
// at. Epochs are part of the key, so invalidation is free: any mutation
// bumps an epoch and every later lookup simply misses.
type resultKey struct {
	table  uint64
	query  string
	config string
	epochs [numShards]uint64
}

// resultEntry is a cached result with the epochs it was computed at.
type resultEntry struct {
	epochs [numShards]uint64
	res    *Result
}

// resultBase is a resultKey without the epochs: all results sharing a
// base answer the same (table, query, config), just at different data
// versions — of which only the newest can ever hit again, so the cache
// keeps one entry per base.
type resultBase struct {
	table  uint64
	query  string
	config string
}

func (k resultKey) base() resultBase {
	return resultBase{table: k.table, query: k.query, config: k.config}
}

// resultCache is the executor's opt-in layer-3 cache. Cached *Result
// values are shared between callers and must be treated read-only.
type resultCache struct {
	mu      sync.Mutex
	entries segLRU[resultBase, resultEntry]

	hits, misses atomic.Uint64
}

func newResultCache(maxBytes int) *resultCache {
	c := &resultCache{}
	c.entries.setMaxBytes(maxBytes)
	return c
}

func (c *resultCache) lookup(key resultKey) (*Result, bool) {
	base := key.base()
	c.mu.Lock()
	ent, ok := c.entries.get(base)
	ok = ok && ent.epochs == key.epochs
	if ok {
		c.entries.hit(base)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return ent.res, true
}

func (c *resultCache) store(key resultKey, res *Result) {
	nbytes := approxResultBytes(res)
	base := key.base()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Replace the entry for the same (table, query, config) at an older
	// epoch vector: epochs only grow, so once a newer version exists the
	// older one can never hit again — under write churn it would just sit
	// dead in the budget. The replacement is one-directional: a concurrent
	// query that scanned before a write may try to store its (now
	// unreachable) older-epoch result after the fresher one landed, and
	// must not displace it. Epoch vectors of one table are componentwise
	// ordered (scans snapshot under all read locks), so "older" is
	// well-defined.
	if prev, ok := c.entries.get(base); ok && prev.epochs != key.epochs && epochsDominate(prev.epochs, key.epochs) {
		return // incoming result is staler than the cached one
	}
	c.entries.put(base, resultEntry{epochs: key.epochs, res: res}, nbytes)
}

// epochsDominate reports whether every component of a is >= b.
func epochsDominate(a, b [numShards]uint64) bool {
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		ResultHits:      c.hits.Load(),
		ResultMisses:    c.misses.Load(),
		ResultEvictions: c.entries.evictions,
		ResultBytes:     c.entries.bytes(),
	}
}

// approxResultBytes estimates the retained size of a cached Result. The
// samples dominate; fixed costs are charged at flat rates. Used only for
// the result cache's byte budget.
func approxResultBytes(res *Result) int {
	const base = 512
	n := base + len(res.Estimates)*160
	for _, w := range res.Warnings {
		n += len(w) + 16
	}
	if res.Sample != nil {
		n += res.Sample.FootprintBytes()
	}
	for _, g := range res.Groups {
		n += base
		if g.Result != nil {
			n += approxResultBytes(g.Result)
		}
	}
	return n
}
