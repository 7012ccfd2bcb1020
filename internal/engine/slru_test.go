package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// checkSegLRU verifies the segmented LRU's bookkeeping against its
// resident entries: each segment's byte and length counters equal the sum
// over its list, the lists are consistently linked, every entry sits in
// the segment its flag names, the map holds exactly the listed entries,
// the total is within budget and probation within its cap (a lone larger
// entry excepted).
func checkSegLRU[K comparable, V any](t *testing.T, c *segLRU[K, V]) {
	t.Helper()
	listed := 0
	for _, seg := range []struct {
		l         *slruList[K, V]
		protected bool
	}{{&c.probation, false}, {&c.protected, true}} {
		n, bytes := 0, 0
		var prev *slruEntry[K, V]
		for e := seg.l.head; e != nil; e = e.next {
			if e.prev != prev {
				t.Fatalf("broken back link at %v", e.key)
			}
			if e.protected != seg.protected {
				t.Fatalf("entry %v flagged protected=%v in the other segment", e.key, e.protected)
			}
			if c.entries[e.key] != e {
				t.Fatalf("listed entry %v missing from the map", e.key)
			}
			n++
			bytes += e.bytes
			prev = e
		}
		if seg.l.tail != prev {
			t.Fatal("tail is not the last listed entry")
		}
		if n != seg.l.len || bytes != seg.l.bytes {
			t.Fatalf("segment (protected=%v) counts len %d bytes %d, resident entries %d with %d bytes",
				seg.protected, seg.l.len, seg.l.bytes, n, bytes)
		}
		listed += n
	}
	if listed != len(c.entries) {
		t.Fatalf("map holds %d entries, lists %d", len(c.entries), listed)
	}
	if c.bytes() > c.maxBytes {
		t.Fatalf("resident %d bytes over the %d budget", c.bytes(), c.maxBytes)
	}
	if c.probation.bytes > c.probationCap() && c.probation.len > 1 {
		t.Fatalf("probation holds %d bytes in %d entries, cap %d", c.probation.bytes, c.probation.len, c.probationCap())
	}
}

// A stream of keys that are each stored once and never asked for again
// churns through probation and never evicts an entry that has been hit.
func TestSegLRUOneHitStreamNeverEvictsPromoted(t *testing.T) {
	var c segLRU[int, int]
	c.setMaxBytes(8000)
	const hot = 30 // 30 x 100 bytes: well inside the protected share
	for k := 0; k < hot; k++ {
		c.put(k, k, 100)
		if _, ok := c.get(k); !ok {
			t.Fatalf("key %d not resident right after put", k)
		}
		c.hit(k)
	}
	rng := rand.New(rand.NewSource(1))
	for k := hot; k < 20000; k++ {
		c.put(k, k, 1+rng.Intn(c.probationCap()))
		if c.probation.bytes > c.probationCap() {
			t.Fatalf("after put %d probation holds %d bytes, cap %d", k, c.probation.bytes, c.probationCap())
		}
	}
	for k := 0; k < hot; k++ {
		if v, ok := c.get(k); !ok || v != k {
			t.Fatalf("promoted key %d evicted by one-hit traffic", k)
		}
	}
	if c.evictions == 0 {
		t.Fatal("one-hit traffic caused no evictions")
	}
	checkSegLRU(t, &c)
}

// Random put/get/hit/remove/resize/clear sequences keep the byte counters
// equal to the resident entries and every bound in force.
func TestSegLRUBookkeepingUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var c segLRU[int, int]
	c.setMaxBytes(4096)
	for op := 0; op < 50000; op++ {
		k := rng.Intn(200)
		switch r := rng.Intn(100); {
		case r < 45:
			// Mostly small entries, some over the probation cap, a few
			// over the whole budget.
			size := 1 + rng.Intn(200)
			if r < 3 {
				size = c.maxBytes/8 + rng.Intn(c.maxBytes+1)
			}
			c.put(k, op, size)
		case r < 85:
			if _, ok := c.get(k); ok {
				c.hit(k)
			}
		case r < 97:
			c.remove(k)
		case r < 99:
			c.setMaxBytes([]int{0, 512, 4096, 16384}[rng.Intn(4)])
		default:
			c.clear()
		}
		checkSegLRU(t, &c)
	}
}

// A re-store of a resident key (a result at a newer epoch) keeps the
// segment the key earned.
func TestSegLRURestoreKeepsSegment(t *testing.T) {
	var c segLRU[string, int]
	c.setMaxBytes(1 << 20)
	c.put("a", 1, 100)
	c.hit("a")
	c.put("a", 2, 300)
	if e := c.entries["a"]; !e.protected || e.val != 2 || e.bytes != 300 {
		t.Fatalf("re-stored entry: protected=%v val=%d bytes=%d", e.protected, e.val, e.bytes)
	}
	c.put("b", 1, 100)
	c.put("b", 2, 100)
	if c.entries["b"].protected {
		t.Fatal("re-store promoted a probation entry without a hit")
	}
	checkSegLRU(t, &c)
}

func TestSchemaVersionBumpEmptiesBothSegments(t *testing.T) {
	c := newScanCache(defaultProgramCacheEntries, defaultBitmapCacheBytes, defaultPartialCacheBytes)
	for shard := 0; shard < 8; shard++ {
		c.storeBitmap("v > 1", shard, 1, newBitmap(1000))
		if shard%2 == 0 {
			if _, ok := c.lookupBitmap("v > 1", shard, 1); !ok {
				t.Fatalf("shard %d: fresh bitmap missed", shard)
			}
		}
	}
	if c.bitmaps.probation.len == 0 || c.bitmaps.protected.len == 0 {
		t.Fatalf("setup: probation %d, protected %d entries", c.bitmaps.probation.len, c.bitmaps.protected.len)
	}
	c.bumpSchemaVersion()
	for _, seg := range []*slruList[bitmapKey, atEpoch[*bitmap]]{&c.bitmaps.probation, &c.bitmaps.protected} {
		if seg.len != 0 || seg.bytes != 0 {
			t.Fatalf("segment left with %d entries, %d bytes", seg.len, seg.bytes)
		}
	}
	if got := c.stats().BitmapBytes; got != 0 {
		t.Fatalf("BitmapBytes = %d after the bump", got)
	}
	for shard := 0; shard < 8; shard++ {
		if _, ok := c.lookupBitmap("v > 1", shard, 1); ok {
			t.Fatalf("shard %d: bitmap survived the bump", shard)
		}
	}
}

// Concurrent stores and lookups on the bitmap and result layers (run
// under -race). A hit must return what was stored for exactly that epoch.
func TestSegLRUConcurrentPutLookup(t *testing.T) {
	sc := newScanCache(defaultProgramCacheEntries, 64<<10, defaultPartialCacheBytes)
	rc := newResultCache(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				expr := fmt.Sprintf("v > %d", rng.Intn(64))
				shard, epoch := rng.Intn(numShards), uint64(rng.Intn(4))
				// The bitmap's length encodes its epoch.
				if bits, ok := sc.lookupBitmap(expr, shard, epoch); ok {
					if bits.n != 64*int(epoch+1) {
						t.Errorf("bitmap hit at epoch %d returned the epoch-%d bitmap", epoch, bits.n/64-1)
						return
					}
				} else {
					sc.storeBitmap(expr, shard, epoch, newBitmap(64*int(epoch+1)))
				}
				key := resultKey{table: 1, query: expr}
				key.epochs[shard] = epoch
				if res, ok := rc.lookup(key); ok {
					if res.Observed != float64(epoch) {
						t.Errorf("result hit at epoch %d returned the epoch-%v result", epoch, res.Observed)
						return
					}
				} else {
					rc.store(key, &Result{Observed: float64(epoch)})
				}
				if i%500 == 0 {
					sc.stats()
					rc.stats()
				}
			}
		}(g)
	}
	wg.Wait()
	sc.mu.Lock()
	checkSegLRU(t, &sc.bitmaps)
	sc.mu.Unlock()
	rc.mu.Lock()
	checkSegLRU(t, &rc.entries)
	rc.mu.Unlock()
}
