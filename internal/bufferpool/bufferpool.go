// Package bufferpool implements a database buffer-pool manager in the
// mould of the paper's setting: a fixed set of page frames over a storage
// backend, with pin/unpin reference counting, dirty-page write-back, and a
// pluggable replacement policy. The concurrent LRU-K replacer of
// internal/core plugs in directly (core.NewSyncReplacer); classical LRU is
// core.NewSyncReplacer(1, ...). The pool depends only on storage.Backend:
// the simulated disk (storage/sim) and the durable file store
// (storage/file) slot in interchangeably.
//
// The pool is built for the paper's multi-user OLTP setting (§1, §4.2):
// one page table, an array of frame slots indexed by page id, under one
// latch; pin counts that are atomics, so a resident hit takes no latch at
// all; and all disk I/O — miss reads and dirty-victim write-backs — runs
// outside every latch. The pin count is the only authority on whether a
// resident page can be evicted: a page becomes a victim candidate once,
// when it becomes resident; a hit is one atomic pin plus one reference
// recorded with the replacer, an unpin one atomic add, and an eviction
// sweep skips the candidates it finds pinned (Figure 2.1 tests eligibility
// when a victim is sought, not on every reference).
// Page handles are values, so a hit allocates nothing. Concurrent misses
// on the same page coalesce onto a single in-flight read. The original
// single-latch implementation survives in serial_test.go as Serial, the
// reference the package's tests compare the concurrent pool against. See
// DESIGN.md §8 for the full protocol.
package bufferpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

// Replacer is the replacement policy the concurrent Pool drives, from many
// goroutines at once: it must be safe for concurrent use.
// core.SyncReplacer implements it.
type Replacer interface {
	// RecordAccess notes the reference that makes p resident (a miss read
	// or a fresh allocation), admitting p as a victim candidate if the
	// replacer does not hold it. This is the one time the pool tells the
	// replacer a page may be evicted: it never reports a pin or unpin, so
	// Evict may return a pinned page, which the pool skips and restores.
	RecordAccess(p policy.PageID)
	// RecordHit notes a reference to a page the caller has pinned. A
	// replacer that applies references late must drop the hit, not admit
	// the page, if an eviction search removed p in the meantime (the pool
	// will Restore it): an abandoned eviction is not a reference.
	RecordHit(p policy.PageID)
	// Restore reinstates residency and candidacy for a page whose eviction
	// was abandoned (the victim was pinned, or its write-back failed). It
	// must not count as a reference: the page's history stays exactly as
	// it was before Evict removed it.
	Restore(p policy.PageID)
	// Evict selects and removes a victim; ok is false if none is evictable.
	Evict() (policy.PageID, bool)
}

// ErrNoFreeFrame reports that every frame is pinned, so the pool cannot
// bring in another page.
var ErrNoFreeFrame = errors.New("bufferpool: all frames pinned")

// ErrClosed reports an operation on a pool after Close.
var ErrClosed = errors.New("bufferpool: pool is closed")

// Stats reports cumulative pool activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
	// Coalesced counts misses that joined another request's in-flight disk
	// read instead of issuing their own (always zero single-threaded; such
	// misses are also counted in Misses).
	Coalesced uint64
	// ReadErrors counts failed miss reads, each one disk attempt. Each is
	// counted once, against the loading fetch; coalesced waiters that
	// inherit the error count only Misses and Coalesced. Failed fetches
	// count in Misses (the page was not resident) but issue no successful
	// disk read, so disk reads == Misses - Coalesced - ReadErrors -
	// ReadsRejected - new pages, as long as no caller's context ends a
	// read: such a read counts only its miss.
	ReadErrors uint64
	// WriteErrors counts failed writes, each one disk attempt: dirty-page
	// write-backs, from evictions and flushes alike, and WriteNewPage
	// calls. A write-back's data survives in memory: the page stays
	// resident and dirty, and the write is retried by the next eviction
	// sweep that selects it and by every flush. A write the caller's own
	// context ended is not an error: it counts nowhere and leaves the page
	// dirty, unquarantined. With fault injection armed, the injector's
	// ledger (storagetest.Ledger) reconciles exactly:
	// ReadFaults == ReadErrors and WriteFaults == WriteErrors.
	WriteErrors uint64
	// ReadsRejected and WritesRejected count operations refused locally by
	// an open circuit breaker, without a disk attempt. Rejected reads are
	// still misses (the page was not resident); rejected write-backs
	// quarantine their page like any failed write.
	ReadsRejected  uint64
	WritesRejected uint64
	// BreakerTrips counts disk circuit-breaker openings.
	BreakerTrips uint64
	// CorruptDetected counts logical reads (miss loads and scrub probes
	// alike) that failed integrity verification, once per detection, when
	// the detection resolves as exactly one of CorruptRepaired or
	// CorruptQuarantined: Detected == Repaired + Quarantined once the
	// pool is quiescent. A detection whose repair the caller's own context
	// ended stays unresolved and uncounted; the next read detects it again.
	CorruptDetected uint64
	// CorruptRepaired counts detections healed in place — a WAL-image
	// read-repair, or a scrub rewrite from a clean resident frame.
	CorruptRepaired uint64
	// CorruptQuarantined counts detections with no redundant copy to
	// repair from. The page id is poisoned: further fetches fail fast
	// with the corruption error, without touching the disk, for the
	// pool's lifetime.
	CorruptQuarantined uint64
	// ScrubPages counts background-scrub reads that verified clean. Each
	// is exactly one successful disk read, so with scrubbing on the read
	// reconciliation becomes disk reads == Misses - Coalesced -
	// ReadErrors - ReadsRejected - new pages + ScrubPages.
	ScrubPages uint64
	// ScrubCorrupt counts corruptions the scrubber found (a subset of
	// CorruptDetected).
	ScrubCorrupt uint64
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any fetches.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Config tunes the concurrent pool.
type Config struct {
	// Breaker configures the disk circuit breaker. The zero value
	// (Threshold 0) disables it.
	Breaker BreakerConfig
	// Metrics holds the pool's optional latency/shape instruments. Each nil
	// histogram disables its measurement entirely (its timing calls are
	// skipped, not just discarded), so the zero value keeps the hot path
	// identical to the uninstrumented pool.
	Metrics Metrics
	// ScrubInterval is the background scrubber's cadence: every interval
	// it verifies scrubBatch pages against the backend, detecting silent
	// corruption before a client read trips over it. Zero disables the
	// scrubber. The scrubber runs only after Start.
	ScrubInterval time.Duration
	// CorruptionHook, when set, is called once per detected corruption
	// after its fate is decided: repaired in place, or quarantined. It
	// runs on the detecting goroutine (a fetch's miss path or the
	// scrubber) and must not call back into the pool.
	CorruptionHook func(p policy.PageID, kind storage.CorruptKind, repaired bool)
}

// RetryConfig is inert.
//
// Deprecated: nothing reads it; the pool makes exactly one disk attempt per
// read or write. It exists only so the benchmark harness, whose bench/
// workloads.go sets it through db.Config.DiskRetry, still compiles. The next
// change to bench/ deletes it together with that literal.
type RetryConfig struct {
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
	Seed      uint64
}

// Metrics are the pool's optional observability instruments. Counters are
// not here — the pool's atomics already exist and are exposed by Stats
// (and at scrape time by internal/db's collectors); these histograms cover
// what a counter cannot: how long fetches take and what shape evictions
// have.
type Metrics struct {
	// FetchLatency records wall nanoseconds of every fetch, hits and misses
	// alike.
	FetchLatency *obs.Histogram
	// MissLatency records wall nanoseconds of fetches that ran the miss
	// protocol themselves: frame obtention (eviction sweep and write-backs
	// included) plus the disk read.
	MissLatency *obs.Histogram
	// CoalesceWait records wall nanoseconds coalesced waiters spent parked
	// on another fetch's in-flight disk read.
	CoalesceWait *obs.Histogram
	// SweepLength records, per eviction sweep that could not be satisfied
	// from the free list, how many victims the sweep examined before a
	// frame was secured (or the sweep failed). Values above 1 mean victims
	// were pinned or failed their write-back.
	SweepLength *obs.Histogram
	// DiskReadLatency and DiskWriteLatency record wall time of every disk
	// read and write attempt the breaker admitted — latch waits, injected
	// delay and (on the file backend) WAL group commit included, failed
	// attempts too.
	DiskReadLatency  *obs.Histogram
	DiskWriteLatency *obs.Histogram
}

// Pool is the concurrent buffer-pool manager.
type Pool struct {
	// backend is the configured storage backend. Its Read and Write are
	// called from diskIO alone, behind breaker (nil when disabled).
	backend  storage.Backend
	breaker  *breaker
	replacer Replacer
	frames   []frame
	mem      *frameMemory

	// tableMu is the page table's latch. The table is the page-state array:
	// dir, a directory of chunks of slots indexed by the dense page ids. Only
	// tableMu's exclusive holder stores a slot or grows dir.
	tableMu sync.RWMutex
	dir     atomic.Pointer[[]*pageChunk]

	freeMu sync.Mutex
	free   []*frame

	// quarantined counts the frames whose quarantined bit is set: resident
	// pages whose most recent dirty write-back failed (flush.go).
	quarantined atomic.Int64

	// repairer is the backend as a storage.Repairer, when it can repair a
	// corrupt page in place (the file store's WAL-tail repair; storagetest's
	// injector passes repair through to the backend it wraps); nil when it
	// cannot.
	repairer storage.Repairer
	// poisoned holds unrepairable-corrupt page ids: detection found no
	// redundant copy, so fetches fail fast with the recorded corruption
	// kind instead of re-reading garbage. Page ids are never freed, so no
	// later allocation reuses a poisoned one. npoisoned is the map's size:
	// it only grows, and while it is zero a miss skips poisonMu.
	poisonMu  sync.Mutex
	poisoned  map[policy.PageID]storage.CorruptKind
	npoisoned atomic.Int64

	corruptDetected    atomic.Uint64
	corruptRepaired    atomic.Uint64
	corruptQuarantined atomic.Uint64
	scrubPages         atomic.Uint64
	scrubCorrupt       atomic.Uint64
	scrubCursor        atomic.Int64

	// The Stats counters. A hit bumps hits, so they sit on cache lines of
	// their own, away from the fields every fetch reads.
	_    [64]byte
	hits atomic.Uint64
	// latchedHits counts the hits the lock-free probe did not serve, so the
	// probe pays for one counter; FastHits derives the probe's share.
	latchedHits    atomic.Uint64
	misses         atomic.Uint64
	coalesced      atomic.Uint64
	evictions      atomic.Uint64
	writeBacks     atomic.Uint64
	readErrors     atomic.Uint64
	writeErrors    atomic.Uint64
	readsRejected  atomic.Uint64
	writesRejected atomic.Uint64
	_              [64]byte

	metrics        Metrics
	scrubInterval  time.Duration
	corruptionHook func(policy.PageID, storage.CorruptKind, bool)

	// closed gates every public operation after Close; in-flight operations
	// complete normally.
	closed atomic.Bool
	// lifeMu serialises Start and Close; stop and closeErr are guarded by it.
	lifeMu   sync.Mutex
	closeErr error
	// stop cancels the context the scrubber runs under (nil until Start
	// launches it); bg waits for its exit.
	stop context.CancelFunc
	bg   sync.WaitGroup
}

// New returns a pool of numFrames frames over backend b using the given
// replacer.
func New(b storage.Backend, numFrames int, r Replacer) *Pool {
	return NewWithConfig(b, numFrames, r, Config{})
}

// NewWithConfig returns a pool of numFrames frames over backend b using the
// given replacer. Every read and write the pool issues, every scrub read
// included, crosses one gate, diskIO, once, where the disk circuit breaker
// (when cfg.Breaker enables it) admits it and records its outcome.
func NewWithConfig(b storage.Backend, numFrames int, r Replacer, cfg Config) *Pool {
	if b == nil {
		panic("bufferpool: nil storage backend")
	}
	if numFrames <= 0 {
		panic(fmt.Sprintf("bufferpool: frame count must be positive, got %d", numFrames))
	}
	if r == nil {
		panic("bufferpool: nil replacer")
	}
	p := &Pool{
		backend:        b,
		breaker:        newBreaker(cfg.Breaker, time.Now),
		replacer:       r,
		frames:         make([]frame, numFrames),
		mem:            &frameMemory{make([][]byte, 0, (numFrames+storage.ChunkPages-1)/storage.ChunkPages)},
		free:           make([]*frame, 0, numFrames),
		poisoned:       make(map[policy.PageID]storage.CorruptKind),
		metrics:        cfg.Metrics,
		scrubInterval:  cfg.ScrubInterval,
		corruptionHook: cfg.CorruptionHook,
	}
	p.dir.Store(new([]*pageChunk))
	p.repairer, _ = b.(storage.Repairer)
	// Frames are cut from arena chunks, uncleared (DESIGN.md §8); the
	// three-index slice caps each at its own page, so no append through
	// Data() reaches a neighbour.
	for i := range p.frames {
		if i%storage.ChunkPages == 0 {
			c, err := storage.TakeChunk()
			if err != nil {
				panic(fmt.Sprintf("bufferpool: frame memory: %v", err)) // out of memory
			}
			p.mem.chunks = append(p.mem.chunks, c)
		}
		off := i % storage.ChunkPages * storage.PageSize
		p.frames[i].data = p.mem.chunks[i/storage.ChunkPages][off : off+storage.PageSize : off+storage.PageSize]
		p.free = append(p.free, &p.frames[i])
	}
	runtime.SetFinalizer(p.mem, func(m *frameMemory) { storage.ReleaseChunks(m.chunks) })
	return p
}

// frameMemory holds the chunks a pool's frames are cut from. Only the pool
// points at it, and a Page holds *Pool, so its finalizer runs once the pool
// and every handle are unreachable (runtime.AddCleanup needs go 1.24).
type frameMemory struct{ chunks [][]byte }

// releaseFrames, at Close, hands the frames' chunks back to the arena only if
// every frame is free (freePop refuses a closed pool) or claimed here out of
// its slot (tryClaim fails on a pin or a write-back). Else the finalizer set
// in NewWithConfig does, once the pool is unreachable.
func (p *Pool) releaseFrames() {
	n := 0
	p.tableMu.Lock()
	for i := range p.frames {
		if f := &p.frames[i]; p.tabled(f) && f.tryClaim() {
			p.slot(policy.PageID(f.page.Load())).Store(nil)
			n++
		}
	}
	p.tableMu.Unlock()
	p.freeMu.Lock()
	n += len(p.free)
	p.freeMu.Unlock()
	if n == len(p.frames) {
		runtime.SetFinalizer(p.mem, nil)
		storage.ReleaseChunks(p.mem.chunks)
	}
}

// BreakerOpen reports whether the disk circuit is open: misses and
// write-backs fail fast (past the cooldown too, until a probe runs). False
// when the breaker is disabled.
func (p *Pool) BreakerOpen() bool { return p.breaker.isOpen() }

// Stats returns a snapshot of pool counters, read from their atomics
// without a lock. Under concurrent load the counters are individually exact
// but not mutually consistent.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:               p.hits.Load(),
		Misses:             p.misses.Load(),
		Evictions:          p.evictions.Load(),
		WriteBacks:         p.writeBacks.Load(),
		Coalesced:          p.coalesced.Load(),
		ReadErrors:         p.readErrors.Load(),
		WriteErrors:        p.writeErrors.Load(),
		ReadsRejected:      p.readsRejected.Load(),
		WritesRejected:     p.writesRejected.Load(),
		BreakerTrips:       p.breaker.tripCount(),
		CorruptDetected:    p.corruptDetected.Load(),
		CorruptRepaired:    p.corruptRepaired.Load(),
		CorruptQuarantined: p.corruptQuarantined.Load(),
		ScrubPages:         p.scrubPages.Load(),
		ScrubCorrupt:       p.scrubCorrupt.Load(),
	}
}

// FastHits returns how many hits were served by the latch-free probe — a
// subset of Stats().Hits, kept out of Stats so the pool's accounting
// remains field-for-field comparable with the Serial reference pool
// (serial_test.go).
func (p *Pool) FastHits() uint64 {
	// latchedHits first: it is bumped after hits, so the difference never
	// goes negative under concurrent fetches.
	latched := p.latchedHits.Load()
	return p.hits.Load() - latched
}

// NumFrames returns the pool capacity in frames.
func (p *Pool) NumFrames() int { return len(p.frames) }

// Resident reports whether page id currently occupies a frame (including
// one whose read is still in flight, but not a victim mid write-back).
func (p *Pool) Resident(id policy.PageID) bool {
	p.tableMu.RLock()
	defer p.tableMu.RUnlock()
	f := p.lookup(id)
	return f != nil && f.state.Load() != frameWriting
}
