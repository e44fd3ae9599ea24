package spell_test

import (
	"fmt"
	"sync"
	"testing"

	"intellog/internal/spell"
)

func TestLookupCacheHitMissAndNegative(t *testing.T) {
	c := spell.NewLookupCache(4)
	if _, hit := c.Get("a"); hit {
		t.Fatal("empty cache reported a hit")
	}
	k := &spell.Key{ID: 3, Tokens: []string{"a"}}
	c.Add("a", k)
	if got, hit := c.Get("a"); !hit || got != k {
		t.Fatalf("Get(a) = %v, %v", got, hit)
	}
	// Negative entries are hits carrying a nil key.
	c.Add("miss", nil)
	if got, hit := c.Get("miss"); !hit || got != nil {
		t.Fatalf("negative Get = %v, %v; want nil, true", got, hit)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 2 hits / 1 miss", hits, misses)
	}
}

func TestLookupCacheEvictsLRU(t *testing.T) {
	c := spell.NewLookupCache(3)
	for i := 0; i < 3; i++ {
		c.Add(fmt.Sprintf("m%d", i), &spell.Key{ID: i})
	}
	c.Get("m0") // m0 becomes most recent; m1 is now LRU
	c.Add("m3", &spell.Key{ID: 3})
	if _, hit := c.Get("m1"); hit {
		t.Fatal("LRU entry m1 survived eviction")
	}
	for _, m := range []string{"m0", "m2", "m3"} {
		if _, hit := c.Get(m); !hit {
			t.Fatalf("%s evicted unexpectedly", m)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestLookupCacheUpdateExisting(t *testing.T) {
	c := spell.NewLookupCache(2)
	c.Add("m", nil)
	k := &spell.Key{ID: 9}
	c.Add("m", k)
	if got, hit := c.Get("m"); !hit || got != k {
		t.Fatalf("updated entry = %v, %v", got, hit)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Add, want 1", c.Len())
	}
}

// TestLookupCacheFastPathBoundary pins the recency semantics at exactly
// the cap/2 fast-path cutoff: once Len reaches cap/2, hits switch to the
// write-locked path and start updating LRU order; below it they do not.
func TestLookupCacheFastPathBoundary(t *testing.T) {
	// At the boundary (Len == cap/2) a Get refreshes recency, so the
	// touched entry survives eviction.
	c := spell.NewLookupCache(4)
	c.Add("m0", &spell.Key{ID: 0})
	c.Add("m1", &spell.Key{ID: 1})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (= cap/2)", c.Len())
	}
	c.Get("m0") // slow path: moves m0 to front, m1 becomes LRU
	c.Add("m2", &spell.Key{ID: 2})
	c.Add("m3", &spell.Key{ID: 3})
	c.Add("m4", &spell.Key{ID: 4}) // evicts
	if _, hit := c.Get("m1"); hit {
		t.Error("m1 survived; Get at the boundary should have refreshed m0, making m1 the LRU")
	}
	if _, hit := c.Get("m0"); !hit {
		t.Error("m0 evicted despite boundary-path recency refresh")
	}

	// Below the boundary (Len < cap/2) a Get is served lock-shared and
	// recency is deliberately NOT refreshed — the entry is nowhere near
	// eviction at that point, and insertion order decides later.
	c2 := spell.NewLookupCache(6)
	c2.Add("a0", &spell.Key{ID: 0})
	c2.Add("a1", &spell.Key{ID: 1})
	c2.Get("a0") // fast path: no recency update
	for i := 2; i < 7; i++ {
		c2.Add(fmt.Sprintf("a%d", i), &spell.Key{ID: i})
	}
	if _, hit := c2.Get("a0"); hit {
		t.Error("a0 survived; fast-path Get must not have refreshed recency")
	}
	if _, hit := c2.Get("a1"); !hit {
		t.Error("a1 evicted out of insertion order")
	}
}

// TestLookupCacheAddAuxOverwritesCachedMiss covers the memo-rebuild path:
// a plain cached miss later gains a key and an aux memo in place.
func TestLookupCacheAddAuxOverwritesCachedMiss(t *testing.T) {
	c := spell.NewLookupCache(4)
	c.Add("m", nil)
	if k, aux, hit := c.GetAux("m"); !hit || k != nil || aux != nil {
		t.Fatalf("cached miss = (%v, %v, %v), want (nil, nil, true)", k, aux, hit)
	}
	key := &spell.Key{ID: 5}
	memo := "memoized lookup"
	c.AddAux("m", key, memo)
	k, aux, hit := c.GetAux("m")
	if !hit || k != key || aux != memo {
		t.Fatalf("overwritten entry = (%v, %v, %v), want key+aux hit", k, aux, hit)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after in-place overwrite, want 1", c.Len())
	}
}

// TestLookupCacheStatsConcurrentReaders hammers Get/GetAux/Stats from
// parallel readers while a writer churns entries; under -race it proves
// the lock-free counters, and afterwards hits+misses must equal the exact
// number of reads issued.
func TestLookupCacheStatsConcurrentReaders(t *testing.T) {
	// Capacity exceeds everything added below, so the hot keys can never
	// be evicted and the hit/miss split is exact, not racy.
	c := spell.NewLookupCache(1024)
	for i := 0; i < 8; i++ {
		c.Add(fmt.Sprintf("hot%d", i), &spell.Key{ID: i})
	}
	const readers, reads = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if i%2 == 0 {
					c.Get(fmt.Sprintf("hot%d", i%8))
				} else {
					c.GetAux(fmt.Sprintf("cold%d-%d", w, i))
				}
				if i%100 == 0 {
					c.Stats()
				}
			}
		}(w)
	}
	// A concurrent writer keeps the write lock busy too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			c.AddAux(fmt.Sprintf("churn%d", i), nil, i)
		}
	}()
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != readers*reads {
		t.Errorf("hits %d + misses %d = %d, want %d reads", hits, misses, hits+misses, readers*reads)
	}
	if hits != readers*reads/2 || misses != readers*reads/2 {
		t.Errorf("hits %d / misses %d, want an exact %d/%d split", hits, misses, readers*reads/2, readers*reads/2)
	}
}

// TestLookupCacheConcurrent exercises the cache and a trained parser from
// many goroutines; run with -race it proves the concurrent-reader
// contract of the acceptance criteria.
func TestLookupCacheConcurrent(t *testing.T) {
	p := spell.NewParser(0)
	var msgs [][]string
	for i := 0; i < 64; i++ {
		m := []string{"task", fmt.Sprint(i), "finished", "on", fmt.Sprintf("host_%d", i%5)}
		p.Consume(append([]string(nil), m...))
		msgs = append(msgs, m)
	}
	c := spell.NewLookupCache(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m := msgs[(i+w)%len(msgs)]
				raw := fmt.Sprint(m)
				k, hit := c.Get(raw)
				if !hit {
					k = p.Lookup(m)
					c.Add(raw, k)
				}
				if k == nil {
					t.Errorf("trained message %v failed to match", m)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLookupCacheOfferAdmitsOnRepeat pins the admission contract: a
// rendering's first Offer stores nothing, its second stores the entry,
// and AddAux stays unconditional.
func TestLookupCacheOfferAdmitsOnRepeat(t *testing.T) {
	c := spell.NewLookupCache(64)
	k := &spell.Key{ID: 1}
	if c.Offer("m", k, "memo") {
		t.Fatal("first Offer reported stored")
	}
	if _, hit := c.Get("m"); hit {
		t.Fatal("first Offer stored the entry")
	}
	if !c.Offer("m", k, "memo") {
		t.Fatal("second Offer not stored")
	}
	if got, aux, hit := c.GetAux("m"); !hit || got != k || aux != "memo" {
		t.Fatalf("admitted entry = (%v, %v, %v), want key+aux hit", got, aux, hit)
	}
	c.AddAux("warm", nil, "fill")
	if _, aux, hit := c.GetAux("warm"); !hit || aux != "fill" {
		t.Fatalf("AddAux entry = (%v, %v), want an unconditional store", aux, hit)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestLookupCacheOfferUniqueStaysEmpty offers many distinct renderings
// once each: none may be retained.
func TestLookupCacheOfferUniqueStaysEmpty(t *testing.T) {
	c := spell.NewLookupCache(1024)
	for i := 0; i < 50000; i++ {
		if c.Offer(fmt.Sprintf("task_%d finished", i), nil, i) {
			t.Fatalf("unique offer %d stored", i)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after unique offers, want 0", c.Len())
	}
}

// TestLookupCacheOfferConcurrent races Offer, GetAux and AddAux over a
// shared mix of repeating and one-shot renderings; under -race it proves
// the doorkeeper's lock-free slots. Every hot rendering is offered many
// times, so it must end up admitted.
func TestLookupCacheOfferConcurrent(t *testing.T) {
	c := spell.NewLookupCache(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				hot := fmt.Sprintf("hot%d", i%16)
				if _, _, hit := c.GetAux(hot); !hit {
					c.Offer(hot, nil, i)
				}
				c.Offer(fmt.Sprintf("once%d-%d", w, i), nil, i)
				if i%50 == 0 {
					c.AddAux(fmt.Sprintf("warm%d", i), nil, i)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 16; i++ {
		if _, hit := c.Get(fmt.Sprintf("hot%d", i)); !hit {
			t.Errorf("hot%d never admitted", i)
		}
	}
}
