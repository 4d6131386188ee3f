package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// CacheOptions configures a generic Cache.
type CacheOptions struct {
	// K is the history depth; the paper advocates K=2 "as a generally
	// efficient policy" (§4.1). Zero selects 2.
	K int

	// Shards is the number of independently locked shards; capacity is
	// split evenly across them. Zero selects 16. Use 1 for strict global
	// LRU-K ordering at the cost of lock contention.
	Shards int

	// CorrelatedReferencePeriod and RetainedInformationPeriod are the §2.1
	// periods, measured in units of Clock. With the default logical clock
	// the unit is "references to this shard". Zero CRP disables
	// correlation handling; zero RIP selects DefaultRIP for the shard
	// capacity.
	CorrelatedReferencePeriod policy.Tick
	RetainedInformationPeriod policy.Tick

	// Clock, when non-nil, supplies timestamps (e.g. wall-clock
	// milliseconds) so the §2.1 periods can be expressed in real time, as
	// the paper's canonical "5 seconds" CRP and "200 seconds" RIP are. The
	// clock must be non-decreasing. When nil, each shard counts its own
	// references, the paper's tick time.
	Clock func() policy.Tick
}

// CacheStats reports cumulative counters for a Cache.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Rejected counts Puts refused because the shard was full and no victim
	// could be evicted; without the refusal a shard would grow past its
	// capacity whenever eviction comes up empty.
	Rejected uint64
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookups.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a thread-safe, sharded, generic in-memory cache with LRU-K
// eviction: the replacement victim is the entry with the maximal Backward
// K-distance over uncorrelated accesses, so one-shot bulk traffic (the
// paper's sequential-scan problem, Example 1.2) cannot flush entries with
// proven re-reference frequency.
//
// Retained history (§2.1.2) outlives eviction: a key that keeps coming
// back is recognised as frequent even if each visit found it evicted.
type Cache[K comparable, V any] struct {
	shards []cacheShard[K, V]
	mask   uint64
	hash   func(K) uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	rejected  atomic.Uint64
}

type cacheShard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	table    *histTable
	clock    func() policy.Tick
	refs     policy.Tick // logical clock when no external clock is given
	byKey    map[K]policy.PageID
	byID     map[policy.PageID]*cacheEntry[K, V]
	resident int
	nextID   policy.PageID
}

type cacheEntry[K comparable, V any] struct {
	key   K
	value V
	live  bool // false while only history is retained
}

// NewCache returns a Cache holding at most capacity entries, hashing keys
// with hash. Capacity is split across shards, so it must be at least the
// shard count.
//
// For string or integer keys, NewStringCache and NewIntCache supply the
// hash function.
func NewCache[K comparable, V any](capacity int, hash func(K) uint64, opts CacheOptions) (*Cache[K, V], error) {
	if hash == nil {
		return nil, fmt.Errorf("core: nil hash function")
	}
	if opts.K == 0 {
		opts.K = 2
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("core: K must be at least 1, got %d", opts.K)
	}
	if opts.Shards == 0 {
		opts.Shards = 16
	}
	if opts.Shards < 1 || opts.Shards&(opts.Shards-1) != 0 {
		return nil, fmt.Errorf("core: shard count must be a positive power of two, got %d", opts.Shards)
	}
	if capacity < opts.Shards {
		return nil, fmt.Errorf("core: capacity %d below shard count %d", capacity, opts.Shards)
	}
	shardCap := capacity / opts.Shards
	rip := opts.RetainedInformationPeriod
	if rip == 0 {
		rip = DefaultRIP(shardCap, opts.K)
	}
	c := &Cache[K, V]{
		shards: make([]cacheShard[K, V], opts.Shards),
		mask:   uint64(opts.Shards - 1),
		hash:   hash,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = shardCap
		s.table = newHistTable(opts.K, opts.CorrelatedReferencePeriod, rip)
		s.clock = opts.Clock
		s.byKey = make(map[K]policy.PageID)
		s.byID = make(map[policy.PageID]*cacheEntry[K, V])
		s.table.onPurge = func(id policy.PageID) {
			// Runs under the shard lock (all table calls are locked).
			if e, ok := s.byID[id]; ok && !e.live {
				delete(s.byID, id)
				delete(s.byKey, e.key)
			}
		}
	}
	return c, nil
}

// NewStringCache returns a Cache with string keys using an FNV-1a hash.
func NewStringCache[V any](capacity int, opts CacheOptions) (*Cache[string, V], error) {
	return NewCache[string, V](capacity, hashString, opts)
}

// NewIntCache returns a Cache with int64 keys using a SplitMix64 mix.
func NewIntCache[V any](capacity int, opts CacheOptions) (*Cache[int64, V], error) {
	return NewCache[int64, V](capacity, hashInt64, opts)
}

func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func hashInt64(x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (c *Cache[K, V]) shard(key K) *cacheShard[K, V] {
	return &c.shards[c.hash(key)&c.mask]
}

// Get returns the cached value for key. A hit counts as a reference (it
// updates the key's HIST block); a miss records nothing, since LRU-K
// history tracks references to data actually brought in — the caller
// records that by calling Put.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.get(key)
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Contains reports whether key is cached, without counting a reference.
func (c *Cache[K, V]) Contains(key K) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byKey[key]
	if !ok {
		return false
	}
	e := s.byID[id]
	return e != nil && e.live
}

// Put inserts or replaces the value for key, counting as a reference. If
// the shard is full the LRU-K victim is evicted first. It reports whether
// the value was admitted: a full shard with no evictable victim refuses
// the insert rather than exceed its capacity (CacheStats.Rejected counts
// refusals).
func (c *Cache[K, V]) Put(key K, value V) bool {
	s := c.shard(key)
	s.mu.Lock()
	evicted, admitted := s.put(key, value)
	s.mu.Unlock()
	c.evictions.Add(evicted)
	if !admitted {
		c.rejected.Add(1)
	}
	return admitted
}

// Delete removes key's value, retaining its reference history per §2.1.2
// (a deleted-then-refetched key is still recognised as frequent). It
// reports whether a live value was removed.
func (c *Cache[K, V]) Delete(key K) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byKey[key]
	if !ok {
		return false
	}
	e := s.byID[id]
	if e == nil || !e.live {
		return false
	}
	s.table.retireResident(s.table.pages[id])
	s.release(e)
	return true
}

// Len returns the number of live entries across all shards.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.resident
		s.mu.Unlock()
	}
	return n
}

// ErrNoClock reports a janitor request on a cache using the logical
// (reference-count) clock, where time only advances with traffic and a
// background sweep has nothing meaningful to do.
var ErrNoClock = errors.New("core: janitor requires a wall-clock cache (CacheOptions.Clock)")

// StartJanitor launches the paper's "asynchronous demon process" (§2.1.3)
// for a wall-clock cache: a goroutine that advances every shard's clock
// each interval so retained history blocks past their Retained Information
// Period are purged even while the cache is idle. It returns a stop
// function; stopping is idempotent, and stop does not return until the
// janitor goroutine has exited — after stop returns, no janitor sweep is
// running or will run, so callers can tear down the cache's dependencies
// safely. Logical-clock caches purge inline with traffic and return
// ErrNoClock.
func (c *Cache[K, V]) StartJanitor(interval time.Duration) (stop func(), err error) {
	if interval <= 0 {
		return nil, fmt.Errorf("core: janitor interval must be positive, got %v", interval)
	}
	if c.shards[0].clock == nil {
		return nil, ErrNoClock
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				for i := range c.shards {
					s := &c.shards[i]
					s.mu.Lock()
					s.table.advanceTo(s.clock())
					s.mu.Unlock()
				}
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}, nil
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *Cache[K, V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
	}
}

func (s *cacheShard[K, V]) now() policy.Tick {
	if s.clock != nil {
		return s.table.advanceTo(s.clock())
	}
	s.refs++
	return s.table.advanceTo(s.refs)
}

func (s *cacheShard[K, V]) get(key K) (V, bool) {
	var zero V
	now := s.now()
	id, ok := s.byKey[key]
	if !ok {
		return zero, false
	}
	e := s.byID[id]
	if e == nil || !e.live {
		return zero, false
	}
	s.table.touch(s.table.pages[id], now)
	return e.value, true
}

func (s *cacheShard[K, V]) put(key K, value V) (evicted uint64, admitted bool) {
	now := s.now()
	if id, ok := s.byKey[key]; ok {
		e := s.byID[id]
		if e != nil && e.live {
			// Overwrite of a live entry is a reference.
			s.table.touch(s.table.pages[id], now)
			e.value = value
			return 0, true
		}
		// Key known only through retained history: readmit under the same
		// id so the old HIST block counts toward its Backward K-distance.
		if evicted = s.makeRoom(); s.resident >= s.capacity {
			return evicted, false
		}
		s.table.admit(id, now)
		if e == nil {
			e = &cacheEntry[K, V]{key: key}
			s.byID[id] = e
		}
		e.value = value
		e.live = true
		s.resident++
		return evicted, true
	}
	if evicted = s.makeRoom(); s.resident >= s.capacity {
		return evicted, false
	}
	s.nextID++
	id := s.nextID
	s.byKey[key] = id
	s.byID[id] = &cacheEntry[K, V]{key: key, value: value, live: true}
	s.table.admit(id, now)
	s.resident++
	return evicted, true
}

// makeRoom evicts until the shard has a free slot or no victim can be
// found. An admission that proceeded past a failed eviction would push
// resident beyond capacity, unboundedly so under a persistently
// victim-less shard — the caller must re-check resident < capacity and
// refuse the insert otherwise.
func (s *cacheShard[K, V]) makeRoom() (evicted uint64) {
	for s.resident >= s.capacity {
		n := s.evictVictim()
		if n == 0 {
			break
		}
		evicted += n
	}
	return evicted
}

func (s *cacheShard[K, V]) evictVictim() uint64 {
	victim, ok := s.table.evict(s.table.clock)
	if !ok {
		return 0
	}
	s.release(s.byID[victim])
	return 1
}

// release drops e's value once its page has left residency; the entry
// stays behind to bind the key to its retained history.
func (s *cacheShard[K, V]) release(e *cacheEntry[K, V]) {
	e.live = false
	var zero V
	e.value = zero
	s.resident--
}
