// Package batch is the pooled record-batch lifecycle of the serving hot
// path. The ingest wires (NDJSON and ILS1) decode thousands of batches
// per second, and before this package each batch was a freshly allocated
// []logging.Record that died the moment the detector consumed it —
// steady-state serving spent ~30% of its CPU in the collector walking
// that churn. A Batch instead rents its backing array from a Pool and is
// handed off, owner to owner, along the whole path:
//
//	decode → admission → WAL append → queue placement → ordered apply → Release
//
// exactly one goroutine owns a live Batch at any moment, and the final
// owner returns it to the pool for the next fill.
//
// The backing store is deliberately pointer-sparse: records are stored
// by value, and callers resolve strings through the model's interner /
// lookup cache before appending, so a batch holds canonical string
// references rather than private copies. Releasing does not zero the
// array — the strings a parked batch pins are interned and shared with
// the model anyway, and the next fill overwrites the headers.
//
// The ownership contract is enforced, not documented-and-hoped:
// releasing a batch twice panics (atomically checked, so the panic fires
// under -race too, not instead of it), and a test-mode leak detector
// (DetectLeaks) catches batches that were acquired and then dropped
// without Release — the bug that would silently re-grow GC pressure.
package batch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"intellog/internal/logging"
)

// DefaultRecordCap is the backing-array capacity of a freshly allocated
// Batch — sized for the replay client's default 256–512-record batches
// so the first fill takes no growth step. Grow handles bigger batches.
const DefaultRecordCap = 512

// defaultShardCap bounds one shard's parked batches. Shards × cap ×
// DefaultRecordCap records is the pool's worst-case parked footprint
// (~poolShards*32*512 record headers, a few MB); beyond it a released
// batch is surrendered to the GC instead of parked.
const defaultShardCap = 32

// poolShards spreads Get/Put across independent locks. Ingest runs a
// handful of handler goroutines plus the tenant workers, so a small
// fixed fan-out keeps the freelist essentially uncontended without
// per-P machinery.
const poolShards = 8

// Batch is one pooled record batch. Recs is the live fill — callers
// append to it directly (or through Append) and may re-slice it in
// place, e.g. to filter invalid records out before hand-off. The batch
// is single-owner: whoever holds it may touch Recs, and exactly one
// owner must eventually call Release, after which the batch (and any
// view of Recs) must not be touched again.
type Batch struct {
	Recs []logging.Record

	pool *Pool
	// live is 1 between Get and Release; the CAS in Release makes a
	// double release a deterministic panic rather than a data race.
	live atomic.Int32
	// canary, in leak-detect mode, is finalizer-armed so a live batch
	// dropped without Release surfaces as a counted leak (see
	// DetectLeaks). nil outside tests.
	canary *leakCanary
}

// leakCanary is the finalizer target of leak-detect mode. It lives and
// dies with its batch but is a separate allocation, so arming and
// disarming the finalizer never resurrects the batch itself.
type leakCanary struct {
	pool *Pool
	capa int
}

// Pool is a sharded free list of Batches. The zero value is not usable;
// call NewPool. All methods are safe for concurrent use.
type Pool struct {
	shards [poolShards]poolShard
	next   atomic.Uint32 // round-robin shard cursor

	hits        atomic.Uint64 // Get served from the chosen shard
	steals      atomic.Uint64 // Get served from another shard's list
	misses      atomic.Uint64 // Get allocated fresh (every list empty)
	outstanding atomic.Int64  // live batches (Get minus Release)
	leaked      atomic.Uint64 // dropped-without-Release batches (leak-detect mode)

	// leakReport is the test-only leak hook set by DetectLeaks; an atomic
	// pointer so Get reads it without a pool-wide lock.
	leakReport atomic.Pointer[func(recordCap int)]

	recordCap int
	shardCap  int
}

type poolShard struct {
	mu   sync.Mutex
	free []*Batch
	// pad the shard to its own cache line so two shards' locks never
	// false-share.
	_ [40]byte
}

// NewPool builds a pool whose fresh batches start with capacity
// recordCap (0 = DefaultRecordCap).
func NewPool(recordCap int) *Pool {
	if recordCap <= 0 {
		recordCap = DefaultRecordCap
	}
	return &Pool{recordCap: recordCap, shardCap: defaultShardCap}
}

// Get rents a batch with len(Recs) == 0. The caller owns it until it
// either calls Release or hands ownership to exactly one next owner.
func (p *Pool) Get() *Batch {
	idx := p.next.Add(1)
	home := int(idx % poolShards)
	b := p.shards[home].pop()
	switch {
	case b != nil:
		p.hits.Add(1)
	default:
		for i := 1; i < poolShards && b == nil; i++ {
			b = p.shards[(home+i)%poolShards].pop()
		}
		if b != nil {
			p.steals.Add(1)
		} else {
			p.misses.Add(1)
			b = &Batch{Recs: make([]logging.Record, 0, p.recordCap), pool: p}
		}
	}
	b.live.Store(1)
	p.outstanding.Add(1)
	p.armCanary(b)
	return b
}

// Len returns the number of records in the fill.
func (b *Batch) Len() int { return len(b.Recs) }

// Append adds one record to the fill.
func (b *Batch) Append(rec logging.Record) { b.Recs = append(b.Recs, rec) }

// Grow ensures capacity for at least n total records, so a caller with a
// size hint (Content-Length, frame record count) pays at most one growth
// step instead of log₂(n) of them.
func (b *Batch) Grow(n int) {
	if n <= cap(b.Recs) {
		return
	}
	grown := make([]logging.Record, len(b.Recs), n)
	copy(grown, b.Recs)
	b.Recs = grown
}

// Release returns the batch to its pool. It must be called exactly once
// per Get, by whichever owner the batch ended up with; a second call
// panics. After Release the batch and every view of Recs are invalid.
func (b *Batch) Release() {
	if !b.live.CompareAndSwap(1, 0) {
		panic(fmt.Sprintf("batch: double release of %d-cap batch", cap(b.Recs)))
	}
	p := b.pool
	p.outstanding.Add(-1)
	p.disarmCanary(b)
	b.Recs = b.Recs[:0]
	idx := p.next.Add(1)
	if !p.shards[int(idx%poolShards)].push(b, p.shardCap) {
		// Freelist full: surrender the batch to the GC. The canary is
		// already disarmed, so this is not a leak.
		b.pool = nil
	}
}

func (sh *poolShard) pop() *Batch {
	sh.mu.Lock()
	n := len(sh.free)
	if n == 0 {
		sh.mu.Unlock()
		return nil
	}
	b := sh.free[n-1]
	sh.free[n-1] = nil
	sh.free = sh.free[:n-1]
	sh.mu.Unlock()
	return b
}

func (sh *poolShard) push(b *Batch, max int) bool {
	sh.mu.Lock()
	if len(sh.free) >= max {
		sh.mu.Unlock()
		return false
	}
	sh.free = append(sh.free, b)
	sh.mu.Unlock()
	return true
}

// Stats is a point-in-time snapshot of the pool's accounting.
type Stats struct {
	// Hits, Steals and Misses partition every Get: served from the home
	// shard, served from a sibling shard, or freshly allocated.
	Hits, Steals, Misses uint64
	// Outstanding is the number of live batches right now. At quiesce it
	// must be zero; a steadily growing floor is a leak.
	Outstanding int64
	// Leaked counts batches the leak detector saw dropped without
	// Release (always 0 outside DetectLeaks mode).
	Leaked uint64
}

// Stats snapshots the counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:        p.hits.Load(),
		Steals:      p.steals.Load(),
		Misses:      p.misses.Load(),
		Outstanding: p.outstanding.Load(),
		Leaked:      p.leaked.Load(),
	}
}

// DetectLeaks arms the leak detector: from now on every batch carries a
// finalizer-backed canary, and a live batch that becomes unreachable
// without Release increments Stats.Leaked and calls report (which may be
// nil). Test-only — the canary costs two SetFinalizer calls per batch
// lifecycle, which the hot path must not pay; production leak visibility
// is the Outstanding gauge instead.
func (p *Pool) DetectLeaks(report func(recordCap int)) {
	if report == nil {
		report = func(int) {}
	}
	p.leakReport.Store(&report)
}

func (p *Pool) armCanary(b *Batch) {
	if p.leakReport.Load() == nil {
		return
	}
	if b.canary == nil {
		b.canary = &leakCanary{pool: p, capa: cap(b.Recs)}
	}
	b.canary.capa = cap(b.Recs)
	runtime.SetFinalizer(b.canary, func(c *leakCanary) {
		c.pool.leaked.Add(1)
		c.pool.outstanding.Add(-1)
		// Non-nil: a canary is armed only after DetectLeaks, which
		// nothing undoes.
		(*c.pool.leakReport.Load())(c.capa)
	})
}

func (p *Pool) disarmCanary(b *Batch) {
	if b.canary != nil {
		runtime.SetFinalizer(b.canary, nil)
	}
}
