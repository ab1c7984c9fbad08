// Package memo is the cross-alert attribute-verdict cache: a shared,
// immutable, size-bounded cache of the computed object attributes BDL
// heuristics evaluate per candidate edge (IsReadOnlyFile, IsWriteThrough,
// FileTimes), keyed by (store content signature, plan-filter fingerprint,
// object, analysis range, attribute).
//
// Batch triage re-runs hundreds of independent backtracks over one sealed
// store, and dependency explosion (paper E1: up to 35k events per backtrack)
// means the same heavy-hitter objects — explorer.exe, hot DLLs — reach the
// where filter in nearly every run. Each attribute is a walk over the
// object's postings across the plan's whole analysis range, which for a
// script without a time range is the same for every alert, so later runs
// reuse the verdicts earlier runs computed. Window row closures are not
// cached: a window reads a short posting range, and copying its rows out of a
// cache costs more than reading them from the store again.
//
// The load-bearing invariant is the one the SoA indexes established:
// ACCELERATION NEVER CHANGES CHARGED COST. A cache hit replays the
// logical query's simulated cost through store.ChargeReplay — same stats
// counters, same telemetry, same cost-observer callbacks, same analysis-
// clock advance — so every experiment table, batch summary, and DOT file is
// byte-identical cached, uncached, serial, and parallel. A hit saves real
// CPU only; its effect is visible exclusively in the aptrace_memo_* counters
// and in memo-hit/memo-miss explain records.
//
// Correctness guards in the key:
//   - the plan-filter fingerprint (refiner.Plan.FilterFingerprint), interned
//     per cache into an exact integer ID, keeps a verdict computed under one
//     filter from ever serving a run compiled from a different script;
//   - the store content signature (store.ContentSignature) invalidates every
//     entry the moment a live store is resealed with new events — stale
//     entries simply stop matching and age out of the LRU.
//
// A hit is most of what a heuristic workload spends on the cache, so a run
// reads each verdict from the shared cache at most once. Every View (one run)
// keeps a run-local verdict table in front of the cache: lookup order is local
// table → shared cache → store, and a local hit takes no lock, probes no
// shared map and writes no line another run writes. The table holds the
// cache's immutable entries, starts small and grows by open addressing. The
// counts stay exact without a shared write per hit: a shared hit or a miss
// counts in its shard beside the lock it took, and a local hit adds to one of
// a few padded stripes handed out round-robin at Bind; Stats sums both, and
// aptrace_memo_hits_total is fed per view in batches. Reset bumps a cache
// generation, read once per lookup from a line only Reset writes, and a view
// whose generation is stale drops its table before its next lookup.
package memo

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"aptrace/internal/event"
	"aptrace/internal/telemetry"
)

// DefaultMaxBytes is the cache's byte budget when the caller passes 0.
const DefaultMaxBytes = 64 << 20

// numShards spreads the LRU lock; must be a power of two.
const numShards = 64

// numStripes spreads the views' local-hit counts; must be a power of two.
const numStripes = 16

// kind tags which attribute an entry caches. Distinct kinds with the same
// (object, range) are distinct entries.
type kind uint8

const (
	kindReadOnly kind = iota
	kindWriteThrough
	kindFileTimes
)

var kindNames = [...]string{
	kindReadOnly:     "readonly",
	kindWriteThrough: "write-through",
	kindFileTimes:    "file-times",
}

// key identifies one cached verdict. sig is the sealed store's content
// signature, fp the interned plan-filter fingerprint of the run that
// computed the entry.
type key struct {
	sig      uint64
	from, to int64
	obj      event.ObjID
	fp       uint32
	kind     kind
}

// entrySize approximates what one entry holds resident: the entry struct,
// its map slot and its key. Every entry is the same size, so the byte budget
// is an entry count per shard.
const entrySize = 160

type entry struct {
	key        key
	flag       bool  // kindReadOnly / kindWriteThrough verdicts
	t1, t2, t3 int64 // kindFileTimes: creation, lastMod, lastAccess
	charge     int64 // rows to replay on a hit (store.NoCharge possible)

	prev, next *entry // shard LRU list; head = most recent
}

// shard is one slice of the shared cache. Its hit and miss counters sit
// beside its lock, on the line a shared lookup writes anyway, and 64 bytes of
// padding after its 64 bytes of fields keep any two shards off a common cache
// line.
type shard struct {
	mu           sync.RWMutex
	hits, misses atomic.Int64
	entries      map[key]*entry
	head, tail   *entry
	_            [64]byte
}

// stripe counts the local hits of the views bound to it, padded like a shard.
type stripe struct {
	hits atomic.Int64
	_    [120]byte
}

// Cache is a concurrent, byte-bounded LRU of attribute verdicts. One Cache
// serves one store lineage (a sealed store and its views, or a live store
// across reseals); shards keep contention off the batch fleet's hot path.
type Cache struct {
	// gen counts Resets. Every lookup reads it and only Reset writes it, so
	// the padding keeps it off the lines lookups write.
	gen         atomic.Uint64
	maxPerShard int // entries
	_           [112]byte
	shards      [numShards]shard
	stripes     [numStripes]stripe
	nextStripe  atomic.Uint32

	evictions, resident atomic.Int64

	fpMu sync.Mutex
	fps  map[string]uint32 // plan-filter fingerprint -> its ID, never reused

	telHits, telMisses, telEvictions *telemetry.Counter
	telBytes                         *telemetry.Gauge
}

// New builds a cache with the given byte budget (0 means DefaultMaxBytes).
// reg may be nil; the aptrace_memo_* instruments become no-ops. (With a
// registry each miss also adds to a shared counter, and each view adds its
// hits in batches.)
func New(maxBytes int64, reg *telemetry.Registry) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{
		maxPerShard:  int(maxBytes / numShards / entrySize),
		fps:          make(map[string]uint32),
		telHits:      reg.Counter(telemetry.MetricMemoHits),
		telMisses:    reg.Counter(telemetry.MetricMemoMisses),
		telEvictions: reg.Counter(telemetry.MetricMemoEvictions),
		telBytes:     reg.Gauge(telemetry.MetricMemoBytes),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[key]*entry)
	}
	return c
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
	Entries   int64 `json:"entries"`
}

// HitRate returns hits / (hits + misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Stats sums the shards' counters and the stripes' local hits. Safe on a nil
// cache (all zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{Evictions: c.evictions.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		sh.mu.RLock()
		s.Entries += int64(len(sh.entries))
		sh.mu.RUnlock()
	}
	for i := range c.stripes {
		s.Hits += c.stripes[i].hits.Load()
	}
	s.Bytes = s.Entries * entrySize
	return s
}

// Reset drops every entry, counting them as evictions, and then bumps the
// generation, so every view drops its run-local table before its next
// lookup. Serve calls this when a live store reseals with new content: the
// signature in the key already keeps stale entries from matching, Reset
// reclaims their memory immediately instead of waiting for the LRU to age
// them out.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		dropped := int64(len(sh.entries))
		sh.entries = make(map[key]*entry)
		sh.head, sh.tail = nil, nil
		sh.mu.Unlock()
		if dropped > 0 {
			c.evictions.Add(dropped)
			c.telEvictions.Add(dropped)
			c.resident.Add(-dropped)
		}
	}
	// After the shards are empty: a view that read the old generation
	// during the sweep may have taken an entry the sweep dropped, and
	// must drop it again.
	c.gen.Add(1)
	c.telBytes.Set(c.resident.Load() * entrySize)
}

// intern returns the ID of a plan-filter fingerprint, assigning the next one
// to a fingerprint not seen before. IDs are never reused, so two different
// fingerprints never share one.
func (c *Cache) intern(fp string) (uint32, error) {
	c.fpMu.Lock()
	defer c.fpMu.Unlock()
	id, ok := c.fps[fp]
	if !ok {
		if uint64(len(c.fps)) > math.MaxUint32 {
			return 0, errors.New("memo: plan-filter fingerprint IDs exhausted")
		}
		id = uint32(len(c.fps))
		c.fps[fp] = id
	}
	return id, nil
}

func (c *Cache) shard(k key) *shard {
	h := uint64(k.obj)*0x9E3779B97F4A7C15 ^ uint64(k.from)*0xC2B2AE3D27D4EB4F ^ uint64(k.to) ^ uint64(k.fp)<<32 ^ uint64(k.kind)<<56 ^ k.sig
	return &c.shards[h&(numShards-1)]
}

// get returns the cached entry for k. The returned entry is immutable.
//
// The hit path takes only the shard's read lock and counts in the shard:
// batch triage hammers a few heavy-hitter keys from every worker at once,
// and an exclusive lock per hit serializes the whole fleet on those entries.
// LRU promotion is sampled instead — the caller says when (see
// View.lookup): a sampled hit takes the write lock and moves its entry to the
// front, which preserves eviction order for the hot entries that matter
// while keeping the common hit uncontended. (A view asks here at most once
// per key and run, but promoting every such hit measured slower.)
func (c *Cache) get(k key, promote bool) (*entry, bool) {
	sh := c.shard(k)
	sh.mu.RLock()
	e, ok := sh.entries[k]
	sh.mu.RUnlock()
	if !ok {
		sh.misses.Add(1)
		c.telMisses.Inc()
		return nil, false
	}
	sh.hits.Add(1)
	if promote {
		sh.mu.Lock()
		// The entry may have been evicted or Reset away since the read
		// lock dropped; promote only if it still owns its map slot.
		if cur, live := sh.entries[k]; live && cur == e && sh.head != e {
			sh.unlink(e)
			sh.pushFront(e)
		}
		sh.mu.Unlock()
	}
	return e, true
}

// put inserts a freshly computed entry. First writer wins: if the key is
// already present (two workers computed the same verdict concurrently), the
// existing entry stays and the new one is discarded — both are equal by
// construction.
func (c *Cache) put(k key, e *entry) {
	e.key = k
	if c.maxPerShard == 0 {
		return
	}
	sh := c.shard(k)
	var evicted int64
	sh.mu.Lock()
	if _, dup := sh.entries[k]; dup {
		sh.mu.Unlock()
		return
	}
	sh.entries[k] = e
	sh.pushFront(e)
	for len(sh.entries) > c.maxPerShard {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.telEvictions.Add(evicted)
	}
	c.telBytes.Set(c.resident.Add(1-evicted) * entrySize)
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
