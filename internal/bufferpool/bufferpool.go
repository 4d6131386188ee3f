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
// the page table is partitioned into independently latched shards keyed by
// PageID hash, pin counts are atomics so a buffer hit never takes a shard
// latch exclusively, and all disk I/O — miss reads and dirty-victim
// write-backs — runs outside every latch. The pin count is the only
// authority on whether a resident page can be evicted: a page becomes a
// victim candidate once, when it becomes resident; a hit is one atomic pin
// plus one reference recorded with the replacer, an unpin one atomic add,
// and an eviction sweep skips the candidates it finds pinned (Figure 2.1
// tests eligibility when a victim is sought, not on every reference).
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

// ErrDiskUnavailable is the pool-level name for storage.ErrUnavailable: an
// operation refused locally because the circuit breaker for its storage
// stripe is open. Kept as an alias so pool callers (the server's status
// mapping, load generators) need not import the storage package.
var ErrDiskUnavailable = storage.ErrUnavailable

// BreakerConfig aliases storage.BreakerConfig; the pool installs the
// breaker as a storage wrapper around whatever backend it is given.
type BreakerConfig = storage.BreakerConfig

// Replacer is the replacement policy the concurrent Pool drives, from many
// goroutines at once: it must be safe for concurrent use.
// core.SyncReplacer implements it.
type Replacer interface {
	// RecordAccess notes the reference that makes p resident (a miss read
	// or a fresh allocation), admitting p if the replacer does not hold it.
	RecordAccess(p policy.PageID)
	// RecordHit notes a reference to a page the caller has pinned. A
	// replacer that applies references late must drop the hit, not admit
	// the page, if an eviction search removed p in the meantime (the pool
	// will Restore it): an abandoned eviction is not a reference.
	RecordHit(p policy.PageID)
	// SetEvictable marks whether p is a victim candidate. The pool calls it
	// with true exactly where a page becomes resident or is restored, never
	// on pin or unpin: Evict may therefore return a pinned page, which the
	// pool skips and restores.
	SetEvictable(p policy.PageID, evictable bool)
	// Restore reinstates residency for a page whose eviction was abandoned
	// (the victim was pinned, or its write-back failed). It must not
	// count as a reference: the page's history stays exactly as it was
	// before Evict removed it.
	Restore(p policy.PageID)
	// Evict selects and removes a victim; ok is false if none is evictable.
	Evict() (policy.PageID, bool)
	// Remove drops p without treating it as an eviction decision.
	Remove(p policy.PageID)
}

// ErrNoFreeFrame reports that every frame is pinned, so the pool cannot
// bring in another page.
var ErrNoFreeFrame = errors.New("bufferpool: all frames pinned")

// ErrPageNotResident reports an operation on a page the pool does not hold.
var ErrPageNotResident = errors.New("bufferpool: page not resident")

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
	// ReadErrors counts failed miss reads — logical failures, after any
	// retries are exhausted. Each is counted once, against the loading
	// fetch; coalesced waiters that inherit the error count only Misses and
	// Coalesced. Failed fetches count in Misses (the page was not resident)
	// but issue no successful disk read, so disk reads == Misses -
	// Coalesced - ReadErrors - ReadsRejected - new pages.
	ReadErrors uint64
	// WriteErrors counts failed dirty-page write-backs (logical failures,
	// retries exhausted), from evictions and flushes alike. The data
	// survives in memory: the page stays resident and dirty, and the write
	// is retried by the background writer and later sweeps and flushes.
	WriteErrors uint64
	// ReadRetries and WriteRetries count disk attempts that failed with a
	// transient error and were reissued by the retry ladder (each retried
	// attempt counts once). With fault injection armed, the disk's fault
	// ledger reconciles exactly: ReadFaults == ReadRetries + ReadErrors,
	// and likewise for writes.
	ReadRetries  uint64
	WriteRetries uint64
	// ReadsRejected and WritesRejected count operations refused locally by
	// an open circuit breaker, without a disk attempt. Rejected reads are
	// still misses (the page was not resident); rejected write-backs
	// quarantine their page like any failed write.
	ReadsRejected  uint64
	WritesRejected uint64
	// BreakerTrips counts circuit-breaker openings across all disk stripes.
	BreakerTrips uint64
	// CorruptDetected counts logical reads (miss loads and scrub probes
	// alike) that failed integrity verification, once per detection.
	// Every detection resolves as exactly one of CorruptRepaired or
	// CorruptQuarantined: Detected == Repaired + Quarantined once the
	// pool is quiescent.
	CorruptDetected uint64
	// CorruptRepaired counts detections healed in place — a WAL-image
	// read-repair, or a scrub rewrite from a clean resident frame.
	CorruptRepaired uint64
	// CorruptQuarantined counts detections with no redundant copy to
	// repair from. The page id is poisoned: further fetches fail fast
	// with the corruption error, without touching the disk, until the
	// page is deleted or freshly allocated.
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

// Frame lifecycle states. Transitions into frameWriting and table
// insert/delete happen only under the owning shard's exclusive latch;
// frameLoading→frameResident is published lock-free via the frame's ready
// channel.
const (
	frameFree     int32 = iota // on the free list, unreachable from any shard
	frameLoading               // in the table, disk read in flight
	frameResident              // in the table, data valid
	frameWriting               // in the table, dirty-victim write-back in flight
)

// Layout of frame.pv, the packed pin/claim/epoch word that makes the
// resident-hit probe latch-free (DESIGN.md §14):
//
//	bits 0..31   pin count
//	bit  32      claim bit: the frame is being repurposed (evicted or
//	             deleted); probes must not pin it
//	bits 33..63  repurposing epoch, bumped by every claim and install
//
// A lock-free probe validates page identity and residency, then pins with
// a single CompareAndSwap on the whole word: the CAS fails if any claim
// or install intervened since the word was read (the claim bit or the
// epoch changed), so a successful CAS is a valid pin with no undo path.
// The epoch is what defeats ABA: a frame evicted and re-installed — even
// for the same page id, even back to pin count zero — can never present
// the same word again.
const (
	framePinMask  = uint64(1)<<32 - 1
	frameClaimBit = uint64(1) << 32
	frameEpochInc = uint64(1) << 33
)

// frame is one buffer slot. pv, dirty and state are atomics so the hit
// path mutates them with no latch at all (probe) or under a shared shard
// latch (slow path). The pin count in pv is the only authority on whether
// the page can be evicted: pins and unpins tell the replacer nothing, and
// an eviction sweep settles the question with tryClaim.
type frame struct {
	data []byte
	// page is the id the frame currently holds; atomic so the lock-free
	// probe can validate it. Only meaningful while the frame is reachable
	// (a freed frame retains its last id).
	page  atomic.Int64
	pv    atomic.Uint64
	dirty atomic.Bool
	state atomic.Int32
	// ready is closed by the loading goroutine once the miss read finishes
	// (err says how); set before the frame becomes reachable.
	ready chan struct{}
	err   error
	// writeDone is closed when an eviction write-back finishes and the
	// page has left the table; set under the shard's exclusive latch.
	writeDone chan struct{}
	// flushMu serialises flushFrame per frame. A flush clears the dirty bit
	// before its disk write (restoring it on failure); without the mutex a
	// concurrent flusher could observe that transient clean state and
	// report "already durable" for data whose only write is still in flight
	// — and may yet fail. It is held across the write, but only flushers
	// take it, so pin traffic and eviction (which excludes flushers via the
	// pin count) never block on it.
	flushMu sync.Mutex
}

// pins returns the frame's current pin count.
func (f *frame) pins() int64 { return int64(f.pv.Load() & framePinMask) }

// pinAdd adjusts the pin count by d and returns the new count. Callers
// must either hold a pin already (releases) or hold a latch that excludes
// claims (the slow pin paths); the lock-free probe pins via CAS instead.
func (f *frame) pinAdd(d int64) int64 {
	return int64(f.pv.Add(uint64(d)) & framePinMask)
}

// tryClaim atomically claims the frame for repurposing iff it is
// unpinned and unclaimed. Callers hold the owning shard's exclusive
// latch, so the only contenders are lock-free probes; a successful claim
// bumps the epoch (via the claim bit) and guarantees no probe can pin the
// frame until install publishes a new epoch.
func (f *frame) tryClaim() bool {
	for {
		w := f.pv.Load()
		if w&(framePinMask|frameClaimBit) != 0 {
			return false
		}
		if f.pv.CompareAndSwap(w, w+frameClaimBit) {
			return true
		}
	}
}

// unclaim abandons a claim (failed victim write-back), advancing the
// epoch so any probe that read the pre-claim word still fails its CAS.
// The claim bit excludes every other pv writer, so a plain store is safe.
func (f *frame) unclaim() {
	w := f.pv.Load()
	f.pv.Store((w &^ (frameClaimBit | framePinMask)) + frameEpochInc)
}

// install publishes a fresh epoch with pin count 1 for a frame the caller
// owns exclusively (claimed by eviction/delete, or taken off the free
// list, where probes cannot pin it because its state is never
// frameResident). Clearing the claim bit with a new epoch is what re-opens
// the frame to probes once its state becomes frameResident.
func (f *frame) install() {
	w := f.pv.Load()
	f.pv.Store((w &^ (frameClaimBit | framePinMask)) + frameEpochInc + 1)
}

// hotSlots is the per-shard size of the lock-free hit-path pointer array;
// a power of two. 64 slots per shard keeps the array one page-table probe
// wide while making same-slot collisions rare within a shard's working
// set (collisions only cost a fallback to the latched path).
const hotSlots = 64

// shard is one latch partition of the page table, with its own counters so
// Stats aggregation takes no global lock.
type shard struct {
	mu    sync.RWMutex
	table map[policy.PageID]*frame
	// hot is the lock-free hit-path index: recently installed or hit
	// resident frames, keyed by page-hash bits disjoint from the shard
	// selector. Entries may be stale (the frame claimed, freed, or holding
	// another page); probes re-validate against the frame itself and fall
	// back to the latched path on any doubt.
	hot [hotSlots]atomic.Pointer[frame]

	hits atomic.Uint64
	// latchedHits counts the hits the lock-free probe did not serve, a
	// (rare) subset of hits; FastHits derives the probe's share from it so
	// the probe itself pays for one counter. Deliberately not part of
	// Stats: it is a mechanism counter, not pool accounting, and must not
	// disturb Stats' exact differential equality against the Serial
	// reference pool (serial_test.go).
	latchedHits    atomic.Uint64
	misses         atomic.Uint64
	coalesced      atomic.Uint64
	evictions      atomic.Uint64
	writeBacks     atomic.Uint64
	readErrors     atomic.Uint64
	writeErrors    atomic.Uint64
	readRetries    atomic.Uint64
	writeRetries   atomic.Uint64
	readsRejected  atomic.Uint64
	writesRejected atomic.Uint64
	// Pad so adjacent shards do not share cache lines under contention.
	_ [40]byte
}

// Config tunes the concurrent pool.
type Config struct {
	// Shards is the number of page-table latch partitions; must be a power
	// of two. Zero selects a default scaled to GOMAXPROCS. One shard gives
	// a single (reader-writer) page-table latch.
	Shards int
	// Retry configures transient-fault retry for disk reads and writes.
	// The zero value disables retry (one attempt per operation), the
	// pre-hardening behaviour.
	Retry RetryConfig
	// Breaker configures the per-stripe disk circuit breaker. The zero
	// value (Threshold 0) disables it.
	Breaker BreakerConfig
	// WriterInterval is the background writer's cadence between quarantine
	// drain rounds while failures persist (the writer parks when the
	// quarantine is empty and doubles this delay, capped, while drains make
	// no progress). Zero selects 10ms. The writer runs only after Start.
	WriterInterval time.Duration
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
	// Spans, when non-nil, arms fetch tracing: sampled fetches (a sampled
	// obs.TraceContext on ctx) record pool_fetch / pool_miss /
	// pool_coalesce spans plus retry-wait, breaker-reject and evict events
	// here.
	// Nil keeps every fetch free of tracing work; the latch-free hit probe
	// is untouched either way.
	Spans *obs.SpanRecorder
}

// Metrics are the pool's optional observability instruments. Counters are
// not here — the per-shard atomics already exist and are exposed by Stats
// (and at scrape time by internal/db's collectors); these histograms cover
// what a counter cannot: how long fetches take and what shape evictions
// have.
type Metrics struct {
	// FetchLatency records wall nanoseconds of every fetch, hits and misses
	// alike.
	FetchLatency *obs.Histogram
	// MissLatency records wall nanoseconds of fetches that ran the miss
	// protocol themselves: frame obtention (eviction sweep and write-backs
	// included) plus the disk read with its retry ladder.
	MissLatency *obs.Histogram
	// CoalesceWait records wall nanoseconds coalesced waiters spent parked
	// on another fetch's in-flight disk read.
	CoalesceWait *obs.Histogram
	// SweepLength records, per eviction sweep that could not be satisfied
	// from the free list, how many victims the sweep examined before a
	// frame was secured (or the sweep failed). Values above 1 mean victims
	// were pinned or failed their write-back.
	SweepLength *obs.Histogram
}

func defaultShards() int {
	n := runtime.GOMAXPROCS(0) * 4
	s := 8
	for s < n {
		s <<= 1
	}
	return s
}

// Pool is the concurrent buffer-pool manager.
type Pool struct {
	// backend is the I/O path: the configured storage backend, wrapped in
	// the circuit breaker when one is enabled.
	backend  storage.Backend
	breaker  *storage.Breaker // typed handle into backend's breaker stage; nil when disabled
	replacer Replacer
	frames   []frame
	shards   []shard
	mask     uint64

	freeMu sync.Mutex
	free   []*frame

	// quarantined holds resident pages whose most recent dirty write-back
	// failed. They are skipped within the sweep that failed them (so one
	// poisoned page cannot wedge an unrelated fetch) and retried by the
	// background writer and on later sweeps and flushes; a successful write
	// or a delete clears the entry.
	quarMu      sync.Mutex
	quarantined map[policy.PageID]struct{}

	// repairer is the deepest layer of the backend stack that can repair
	// a corrupt page in place (the file store's WAL-tail repair, or a
	// corruption injector's taint clearing); nil when none can.
	repairer storage.Repairer
	// poisoned holds unrepairable-corrupt page ids: detection found no
	// redundant copy, so fetches fail fast with the recorded corruption
	// kind instead of re-reading garbage. DeletePage and a fresh NewPage
	// allocation of the id clear the entry.
	poisonMu sync.Mutex
	poisoned map[policy.PageID]storage.CorruptKind

	corruptDetected    atomic.Uint64
	corruptRepaired    atomic.Uint64
	corruptQuarantined atomic.Uint64
	scrubPages         atomic.Uint64
	scrubCorrupt       atomic.Uint64
	// maxPageSeen is the highest page id the pool has been asked about;
	// with NumPages it bounds the scrubber's sweep.
	maxPageSeen atomic.Int64
	scrubCursor atomic.Int64

	retry          *retrier
	metrics        Metrics
	scrubInterval  time.Duration
	corruptionHook func(policy.PageID, storage.CorruptKind, bool)
	spans          *obs.SpanRecorder

	// closed gates every public operation after Close; in-flight operations
	// complete normally.
	closed atomic.Bool
	// lifeMu serialises Start and Close; started/closeErr are guarded by it.
	lifeMu   sync.Mutex
	started  bool
	closeErr error
	// writerStop ends the background writer and the scrubber; writerDone
	// and scrubDone acknowledge their exits; writerKick (buffered,
	// capacity 1) wakes the writer when quarantineAdd gives it work.
	writerStop     chan struct{}
	writerDone     chan struct{}
	writerKick     chan struct{}
	writerInterval time.Duration
	scrubStarted   bool // guarded by lifeMu
	scrubDone      chan struct{}
}

// New returns a pool of numFrames frames over backend b using the given
// replacer and the default shard count.
func New(b storage.Backend, numFrames int, r Replacer) *Pool {
	return NewWithConfig(b, numFrames, r, Config{})
}

// NewWithConfig returns a pool of numFrames frames over backend b using the
// given replacer. When cfg.Breaker is enabled the pool wraps b in
// storage.WithBreaker, so every read and write — the retry ladder's
// attempts individually — passes through the per-stripe circuit.
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
	if cfg.Shards == 0 {
		cfg.Shards = defaultShards()
	}
	if cfg.Shards < 1 || cfg.Shards&(cfg.Shards-1) != 0 {
		panic(fmt.Sprintf("bufferpool: shard count must be a positive power of two, got %d", cfg.Shards))
	}
	if cfg.WriterInterval <= 0 {
		cfg.WriterInterval = 10 * time.Millisecond
	}
	p := &Pool{
		backend:        b,
		breaker:        storage.WithBreaker(b, cfg.Breaker, time.Now),
		replacer:       r,
		frames:         make([]frame, numFrames),
		shards:         make([]shard, cfg.Shards),
		mask:           uint64(cfg.Shards - 1),
		free:           make([]*frame, 0, numFrames),
		quarantined:    make(map[policy.PageID]struct{}),
		poisoned:       make(map[policy.PageID]storage.CorruptKind),
		retry:          newRetrier(cfg.Retry),
		metrics:        cfg.Metrics,
		scrubInterval:  cfg.ScrubInterval,
		corruptionHook: cfg.CorruptionHook,
		spans:          cfg.Spans,
		writerStop:     make(chan struct{}),
		writerDone:     make(chan struct{}),
		writerKick:     make(chan struct{}, 1),
		writerInterval: cfg.WriterInterval,
		scrubDone:      make(chan struct{}),
	}
	if p.breaker != nil {
		p.backend = p.breaker
	}
	p.maxPageSeen.Store(-1)
	if rp, ok := storage.RepairerFor(p.backend); ok {
		p.repairer = rp
	}
	for i := range p.shards {
		p.shards[i].table = make(map[policy.PageID]*frame)
	}
	for i := range p.frames {
		p.frames[i].data = make([]byte, storage.PageSize)
		p.free = append(p.free, &p.frames[i])
	}
	return p
}

// pageHash mixes a page id with the SplitMix64 finaliser, so sequential
// page ids spread across shards. The low bits select the shard; bits
// 32.. select the shard's hot slot, so the two indices are independent.
func pageHash(id policy.PageID) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *Pool) shardOf(id policy.PageID) *shard {
	return &p.shards[pageHash(id)&p.mask]
}

func hotIndex(id policy.PageID) int {
	return int((pageHash(id) >> 32) & (hotSlots - 1))
}

// hotPublish makes f probe-reachable for id. Racing a claim's hotClear is
// benign: a stale pointer only costs probes a failed validation.
func hotPublish(sh *shard, id policy.PageID, f *frame) {
	sh.hot[hotIndex(id)].Store(f)
}

// hotClear unlinks f from id's hot slot if still present. Called after a
// successful claim (under the shard's exclusive latch), so any publish
// that raced in earlier is ordered before it.
func hotClear(sh *shard, id policy.PageID, f *frame) {
	sh.hot[hotIndex(id)].CompareAndSwap(f, nil)
}

// Page is a pinned page handle. The data is valid until Unpin; using a
// handle after Unpin is a caller bug. It is a value, so a fetch allocates
// nothing; do not copy a live handle — Unpin invalidates only the variable
// it is called on, and a copy would release the pin a second time.
type Page struct {
	pool  *Pool
	id    policy.PageID
	f     *frame
	valid bool
}

// ID returns the page id.
func (pg *Page) ID() policy.PageID { return pg.id }

// Data returns the page's frame bytes for reading and writing. Callers
// that modify the data must pass dirty=true to Unpin.
func (pg *Page) Data() []byte {
	if !pg.valid {
		panic("bufferpool: use of page handle after Unpin")
	}
	return pg.f.data
}

// Unpin releases the handle, marking the page dirty if it was modified.
// The handle becomes invalid.
func (pg *Page) Unpin(dirty bool) {
	if !pg.valid {
		panic("bufferpool: double Unpin")
	}
	pg.valid = false
	pg.pool.releasePin(pg.id, pg.f, dirty)
}

// FlushCtx writes the pinned page back now, counting the caller's own
// modifications as dirty, and leaves the handle pinned. Because the pin is
// held across the write the page cannot be evicted underneath it — the
// difference from unpinning dirty and then calling FlushPageCtx by id,
// which fails with ErrPageNotResident when an eviction wins the gap. On a
// durable backend a nil return carries FlushPageCtx's contract: the image,
// modifications included, has reached the write-ahead log.
func (pg *Page) FlushCtx(ctx context.Context) error {
	if !pg.valid {
		panic("bufferpool: use of page handle after Unpin")
	}
	pg.f.dirty.Store(true)
	return pg.pool.flushFrame(ctx, pg.id, pg.f)
}

// releasePin drops one pin. The replacer is not told: the page has been a
// victim candidate since it became resident, and the sweep that selects it
// reads the pin count itself.
func (p *Pool) releasePin(id policy.PageID, f *frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	if f.pinAdd(-1) >= int64(framePinMask) {
		panic(fmt.Sprintf("bufferpool: unpin of unpinned page %d", id))
	}
}

// frameFor returns the frame currently mapped to id, if any.
func (p *Pool) frameFor(id policy.PageID) *frame {
	sh := p.shardOf(id)
	sh.mu.RLock()
	f := sh.table[id]
	sh.mu.RUnlock()
	return f
}

// NewPage allocates a fresh disk page, pins it in a frame and returns the
// handle.
func (p *Pool) NewPage() (Page, error) {
	return p.NewPageCtx(context.Background())
}

// NewPageCtx is NewPage with a context: the eviction sweep that makes room
// (dirty-victim write-backs and their retry backoff included) is charged
// against ctx.
func (p *Pool) NewPageCtx(ctx context.Context) (Page, error) {
	if p.closed.Load() {
		return Page{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return Page{}, err
	}
	f, err := p.obtainFrame(ctx)
	if err != nil {
		return Page{}, err
	}
	id, err := p.backend.Allocate()
	if err != nil {
		f.state.Store(frameFree)
		p.freePush(f)
		return Page{}, fmt.Errorf("bufferpool: allocating page: %w", err)
	}
	p.notePage(id)
	// A freshly allocated id starts clean whatever its previous life held.
	p.poisonRemove(id)
	clear(f.data)
	f.page.Store(int64(id))
	f.install()
	f.dirty.Store(false)
	f.err = nil
	f.state.Store(frameResident)
	sh := p.shardOf(id)
	sh.mu.Lock()
	sh.table[id] = f // id is fresh: no prior mapping can exist
	sh.mu.Unlock()
	hotPublish(sh, id, f)
	p.admit(id)
	sh.misses.Add(1) // a new page is by definition not buffer-resident
	return Page{pool: p, id: id, f: f, valid: true}, nil
}

// Fetch pins page id, reading it from disk on a miss, and returns the
// handle. Concurrent fetches of a non-resident page issue one disk read:
// the first becomes the loader, the rest coalesce onto its in-flight
// frame.
func (p *Pool) Fetch(id policy.PageID) (Page, error) {
	return p.FetchCtx(context.Background(), id)
}

// FetchCtx is Fetch with a context carrying the caller's deadline. Every
// blocking point honours it: a coalesced waiter whose context expires
// abandons the in-flight load and returns promptly (the loader completes
// and installs the page regardless — see abandonPin for the frame
// accounting), a wait on a victim's write-back is interruptible, and the
// miss path's disk retry backoff is charged against ctx.
func (p *Pool) FetchCtx(ctx context.Context, id policy.PageID) (Page, error) {
	if p.metrics.FetchLatency == nil {
		return p.fetchCtx(ctx, id)
	}
	start := time.Now()
	pg, err := p.fetchCtx(ctx, id)
	p.metrics.FetchLatency.ObserveSince(start)
	return pg, err
}

func (p *Pool) fetchCtx(ctx context.Context, id policy.PageID) (Page, error) {
	if p.closed.Load() {
		return Page{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return Page{}, err
	}
	sh := p.shardOf(id)
	if pg, ok := p.fetchFast(sh, id); ok {
		// A lock-free hit deliberately records no span even when sampled:
		// the probe path stays untouched by tracing, and a sub-microsecond
		// hit adds nothing to a waterfall.
		return pg, nil
	}
	if p.spans != nil {
		// One ctx.Value probe per slow-path fetch, only with tracing armed.
		// Sampled fetches get a pool_fetch span; everything beneath (miss,
		// coalesce, disk, WAL) parents to it via the re-wrapped context.
		if tc := obs.TraceFrom(ctx); tc.Sampled {
			span := p.spans.Start(tc, obs.SpanPoolFetch)
			pg, err := p.fetchSlow(obs.ContextWithTrace(ctx, span.Context()), sh, id, span.Context())
			span.Finish(int64(id))
			return pg, err
		}
	}
	return p.fetchSlow(ctx, sh, id, obs.TraceContext{})
}

// fetchSlow is the latched fetch loop: table lookup, miss protocol,
// coalesce wait, or latched hit. tc is the enclosing pool_fetch span's
// context (zero when the fetch is unsampled).
func (p *Pool) fetchSlow(ctx context.Context, sh *shard, id policy.PageID, tc obs.TraceContext) (Page, error) {
	for {
		sh.mu.RLock()
		f := sh.table[id]
		if f == nil {
			sh.mu.RUnlock()
			var missStart time.Time
			if p.metrics.MissLatency != nil {
				missStart = time.Now()
			}
			pg, retry, err := p.fetchMiss(ctx, sh, id, tc)
			if retry {
				continue
			}
			if p.metrics.MissLatency != nil {
				p.metrics.MissLatency.ObserveSince(missStart)
			}
			return pg, err
		}
		switch f.state.Load() {
		case frameWriting:
			// The page is a dirty victim mid write-back; once it completes
			// the page is gone and the fetch restarts as a plain miss.
			done := f.writeDone
			sh.mu.RUnlock()
			select {
			case <-done:
			case <-ctx.Done():
				return Page{}, ctx.Err()
			}
			continue
		case frameLoading:
			// Coalesce onto the in-flight read.
			f.pinAdd(1)
			ready := f.ready
			sh.mu.RUnlock()
			var waitStart time.Time
			if p.metrics.CoalesceWait != nil {
				waitStart = time.Now()
			}
			coSpan := p.spans.Start(tc, obs.SpanPoolCoalesce)
			select {
			case <-ready:
				coSpan.Finish(int64(id))
				if p.metrics.CoalesceWait != nil {
					p.metrics.CoalesceWait.ObserveSince(waitStart)
				}
			case <-ctx.Done():
				coSpan.Finish(int64(id))
				// Abandon the load: it was joined (a miss, coalesced), and
				// the loader finishes it on our behalf — abandonPin settles
				// the frame whichever way the load ends.
				sh.misses.Add(1)
				sh.coalesced.Add(1)
				p.abandonPin(sh, id, f)
				return Page{}, ctx.Err()
			}
			if err := f.err; err != nil {
				// err is captured before the pin drops: the last pin out
				// recycles the frame, after which f.err may be rewritten by
				// the frame's next loader. A failed coalesced fetch is still
				// a miss (the page was not resident); the disk error itself
				// is counted once, by the loader, in ReadErrors.
				sh.misses.Add(1)
				sh.coalesced.Add(1)
				if f.pinAdd(-1) == 0 {
					p.freePush(f)
				}
				return Page{}, err
			}
			p.replacer.RecordHit(id)
			sh.misses.Add(1)
			sh.coalesced.Add(1)
			return Page{pool: p, id: id, f: f, valid: true}, nil
		default: // frameResident: the hit path — shared latch only
			f.pinAdd(1)
			hotPublish(sh, id, f)
			sh.mu.RUnlock()
			p.replacer.RecordHit(id)
			sh.hits.Add(1)
			sh.latchedHits.Add(1)
			return Page{pool: p, id: id, f: f, valid: true}, nil
		}
	}
}

// fetchFast is the latch-free resident-hit probe (DESIGN.md §14). It
// consults the shard's hot-slot index, validates page identity and
// residency against the frame itself, and pins with one CAS on the
// packed pin/claim/epoch word. The CAS can only succeed if no claim or
// install touched the frame since the word was read, so a success is a
// valid pin on a resident frame with the data published (the loader's
// state.Store(frameResident) happens-before our state load). Any doubt —
// empty slot, colliding page, claim in progress, lost CAS race — returns
// false and the latched path takes over. A hit is the CAS, one replacer
// event and one counter.
func (p *Pool) fetchFast(sh *shard, id policy.PageID) (Page, bool) {
	f := sh.hot[hotIndex(id)].Load()
	if f == nil {
		return Page{}, false
	}
	w := f.pv.Load()
	if w&frameClaimBit != 0 {
		return Page{}, false
	}
	if f.page.Load() != int64(id) || f.state.Load() != frameResident {
		return Page{}, false
	}
	if !f.pv.CompareAndSwap(w, w+1) {
		return Page{}, false
	}
	p.replacer.RecordHit(id)
	sh.hits.Add(1)
	return Page{pool: p, id: id, f: f, valid: true}, true
}

// abandonPin releases the pin of a coalesced waiter that gave up on an
// in-flight load, with exact frame accounting either way the load ends.
// If the count reaches zero the load has published (the loader holds a pin
// until then), leaving two cases: the load succeeded and the page stays
// resident (nothing more to do — the loader made it a victim candidate),
// or it failed, the loader unlinked the frame, and the last participant
// out must recycle it, exactly once. The table mapping distinguishes them,
// and the classification must be atomic with DeletePage's zero-pin check —
// a delete sliding between our decrement and the table read would free the
// frame first and turn our recycle into a double free. Holding the shard
// latch in shared mode (DeletePage needs it exclusively) pins the mapping
// in place while we decide.
func (p *Pool) abandonPin(sh *shard, id policy.PageID, f *frame) {
	sh.mu.RLock()
	if f.pinAdd(-1) == 0 && sh.table[id] != f {
		// Failed load: the frame is table-unreachable and we are the last
		// participant, so no recycle can race this free.
		p.freePush(f)
	}
	sh.mu.RUnlock()
}

// fetchMiss runs the miss protocol: obtain a frame (evicting if needed),
// install it as the in-flight holder for id, then read from disk outside
// every latch and publish. retry is true when another goroutine installed
// the page first and the caller must re-run the fetch.
func (p *Pool) fetchMiss(ctx context.Context, sh *shard, id policy.PageID, tc obs.TraceContext) (pg Page, retry bool, err error) {
	// A sampled miss gets its own span; disk reads, victim write-backs, and
	// retry sleeps beneath it parent to the miss via the re-wrapped context.
	missSpan := p.spans.Start(tc, obs.SpanPoolMiss)
	if missSpan.ID() != 0 {
		ctx = obs.ContextWithTrace(ctx, missSpan.Context())
		defer missSpan.Finish(int64(id))
	}
	p.notePage(id)
	if kind, bad := p.poisonedKind(id); bad {
		// The page is known unrepairable-corrupt: fail fast with the
		// recorded classification instead of re-reading garbage. Still a
		// miss (the page was not resident) and a read error — but not a
		// fresh detection; that was counted when the page was poisoned.
		sh.misses.Add(1)
		sh.readErrors.Add(1)
		return Page{}, false, fmt.Errorf("fetching page %d: %w", id, &storage.ErrCorrupt{Page: id, Kind: kind})
	}
	if !p.breaker.Ready(p.backend.StripeOf(id)) {
		// Fail fast while the stripe's circuit is open: no frame is
		// claimed, no victim written back, no waiters queued behind a disk
		// that is not answering. Still a miss — the page was not resident —
		// but no storage attempt is made. A sampled fetch leaves a
		// zero-duration breaker_reject event marking the refusal.
		sh.misses.Add(1)
		sh.readsRejected.Add(1)
		if missSpan.ID() != 0 {
			p.spans.Emit(tc.TraceID, p.spans.NewSpanID(), missSpan.ID(),
				obs.SpanBreakerReject, time.Now(), 0, int64(id))
		}
		return Page{}, false, fmt.Errorf("fetching page %d: %w", id, ErrDiskUnavailable)
	}
	f, err := p.obtainFrame(ctx)
	if err != nil {
		return Page{}, false, err
	}
	sh.mu.Lock()
	if sh.table[id] != nil {
		// Lost the install race; rejoin as a hit or coalesced miss.
		sh.mu.Unlock()
		p.freePush(f)
		return Page{}, true, nil
	}
	f.page.Store(int64(id))
	f.install()
	f.dirty.Store(false)
	f.err = nil
	f.ready = make(chan struct{})
	f.state.Store(frameLoading)
	sh.table[id] = f
	sh.mu.Unlock()

	// The I/O happens outside the latch — through the breaker, the
	// transient-fault retry ladder, and on detected corruption the
	// read-repair protocol (loadPage), with backoff charged against ctx;
	// concurrent fetches of id find the loading frame and wait on ready,
	// everyone else proceeds untouched.
	if rerr := p.loadPage(ctx, id, f.data); rerr != nil {
		// Publish the error before the table delete becomes observable:
		// the shard latch orders f.err ahead of the deletion for latched
		// readers, and close(ready) publishes it to the parked waiters. A
		// failed load is still a miss — the page was not resident — and
		// counts once in ReadErrors (or ReadsRejected, when the breaker
		// refused the attempt without touching the disk).
		err := fmt.Errorf("fetching page %d: %w", id, rerr)
		f.err = err
		sh.mu.Lock()
		delete(sh.table, id)
		sh.mu.Unlock()
		close(f.ready)
		sh.misses.Add(1)
		sh.countReadFailure(rerr)
		// Waiters that pinned before the table delete still hold the frame;
		// the last participant out returns it to the free list (after which
		// the frame, f.err included, belongs to its next owner).
		if f.pinAdd(-1) == 0 {
			p.freePush(f)
		}
		return Page{}, false, err
	}
	p.admit(id)
	f.state.Store(frameResident)
	close(f.ready)
	hotPublish(sh, id, f)
	sh.misses.Add(1)
	return Page{pool: p, id: id, f: f, valid: true}, false, nil
}

// admit records the reference that makes id resident and marks the page a
// victim candidate — the one time the pool tells the replacer so. The
// caller still holds its pin; a sweep that selects the page meanwhile finds
// the pin count positive and skips it.
func (p *Pool) admit(id policy.PageID) {
	p.replacer.RecordAccess(id)
	p.replacer.SetEvictable(id, true)
}

func (p *Pool) freePop() *frame {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	return nil
}

func (p *Pool) freePush(f *frame) {
	f.state.Store(frameFree)
	p.freeMu.Lock()
	p.free = append(p.free, f)
	p.freeMu.Unlock()
}

// maxWriteBackFailures bounds how many distinct dirty victims may fail
// their write-back within one obtainFrame sweep before the caller's
// operation is failed with the joined errors.
const maxWriteBackFailures = 4

// deferredVictim is a victim whose eviction was abandoned mid-sweep —
// it was pinned, or its write-back failed. Evict has removed it from the
// replacer, and it is restored only later in the sweep, so Evict cannot
// hand the same page straight back.
type deferredVictim struct {
	id policy.PageID
	f  *frame
}

// obtainFrame returns an exclusively owned frame, evicting a victim (with
// write-back if dirty, outside every latch) when none is free. The sweep —
// its write-backs and their retry backoff included — is charged against
// ctx: a cancelled caller stops evicting.
//
// The replacer ranks every resident page, pinned or not; the pin count
// decides. A victim that turns out pinned is skipped and held out of the
// replacer while the search goes on, so the frame the sweep ends with is
// still Definition 2.2's maximum over the unpinned pages, and a sweep over
// all-pinned frames visits each once and fails with ErrNoFreeFrame. Held
// pages go back before the sweep returns or waits on a write-back.
//
// A victim whose dirty write-back fails does not fail the caller: the page
// is restored to residency (its only copy is the in-memory one),
// quarantined, and the sweep moves on to the next victim, up to
// maxWriteBackFailures failures. Quarantined pages are retried by the
// background writer and later sweeps and flushes.
func (p *Pool) obtainFrame(ctx context.Context) (*frame, error) {
	if f := p.freePop(); f != nil {
		return f, nil
	}
	var (
		werrs    []error
		deferred []deferredVictim
		examined int64
	)
	// deferred holds the failed write-backs first (one per werrs entry, kept
	// to sweep end so a poisoned page is tried once per sweep), then the
	// victims skipped as pinned since the last write-back began. All of them
	// re-enter the replacer whichever way the sweep exits. The sweep length
	// is recorded however the sweep ends (the fast free-list path above
	// never reaches here, so every recorded sweep actually consulted the
	// replacer).
	defer func() {
		for _, dv := range deferred {
			p.restoreVictim(dv.id, dv.f)
		}
		p.metrics.SweepLength.Observe(examined)
	}()
	for {
		if err := ctx.Err(); err != nil {
			if len(werrs) > 0 {
				return nil, fmt.Errorf("bufferpool: eviction sweep cancelled: %w",
					errors.Join(append(werrs, err)...))
			}
			return nil, err
		}
		victim, ok := p.replacer.Evict()
		if ok {
			examined++
		} else {
			// A failed load or a DeletePage may have freed a frame since the
			// first check.
			if f := p.freePop(); f != nil {
				return f, nil
			}
			if len(werrs) > 0 {
				return nil, fmt.Errorf("bufferpool: no evictable victim could be written back: %w",
					errors.Join(werrs...))
			}
			return nil, ErrNoFreeFrame
		}
		sh := p.shardOf(victim)
		sh.mu.Lock()
		f := sh.table[victim]
		if f == nil || f.state.Load() != frameResident || !f.tryClaim() {
			// The page vanished, or it is pinned: set it aside and pick the
			// next victim. The latched paths cannot pin while we hold the
			// exclusive latch, and tryClaim atomically excludes the
			// lock-free probes: once it succeeds no new pin can appear.
			sh.mu.Unlock()
			if f != nil {
				deferred = append(deferred, deferredVictim{id: victim, f: f})
			}
			continue
		}
		hotClear(sh, victim, f)
		if !f.dirty.Load() {
			delete(sh.table, victim)
			// Leave frameResident behind: the claimed frame is about to be
			// repurposed, and a stale resident state could let a colliding
			// probe pin it between its next install and state store.
			f.state.Store(frameFree)
			sh.mu.Unlock()
			sh.evictions.Add(1)
			p.traceEviction(ctx, victim)
			return f, nil
		}
		// Dirty victim: transition to frameWriting so the entry stays
		// visible (a concurrent fetch of this page must wait, not read the
		// stale disk copy), then write back outside the latch.
		f.state.Store(frameWriting)
		f.writeDone = make(chan struct{})
		sh.mu.Unlock()
		// Pinned pages are held out only while the search runs, never
		// across I/O: their pins are long gone by the time a write returns.
		for _, dv := range deferred[len(werrs):] {
			p.restoreVictim(dv.id, dv.f)
		}
		deferred = deferred[:len(werrs)]
		werr := p.writePage(ctx, victim, f.data)
		sh.mu.Lock()
		if werr != nil {
			// Restore residency — the data is still only in memory — then
			// quarantine the page and try the next victim instead of
			// failing the caller's unrelated fetch. The unclaim must happen
			// under the exclusive latch, before any latched path can pin
			// the page again, so its epoch bump cannot clobber a pin.
			f.unclaim()
			f.state.Store(frameResident)
			close(f.writeDone)
			sh.mu.Unlock()
			sh.countWriteFailure(werr)
			p.quarantineAdd(victim)
			werrs = append(werrs, fmt.Errorf("writing back victim %d: %w", victim, werr))
			deferred = append(deferred, deferredVictim{id: victim, f: f})
			if len(werrs) >= maxWriteBackFailures {
				return nil, fmt.Errorf("bufferpool: giving up after %d failed write-backs: %w",
					len(werrs), errors.Join(werrs...))
			}
			continue
		}
		delete(sh.table, victim)
		close(f.writeDone)
		sh.mu.Unlock()
		f.dirty.Store(false)
		p.quarantineRemove(victim)
		sh.writeBacks.Add(1)
		sh.evictions.Add(1)
		p.traceEviction(ctx, victim)
		return f, nil
	}
}

// traceEviction leaves a zero-duration evict event (annot = victim page)
// under the span on ctx — the pool_miss span of the sampled fetch the
// sweep ran for — so /spans?trace=… answers which request evicted the
// page. No-op without a recorder or without a sampled trace on ctx.
func (p *Pool) traceEviction(ctx context.Context, victim policy.PageID) {
	if p.spans == nil {
		return
	}
	if tc := obs.TraceFrom(ctx); tc.Sampled {
		p.spans.Emit(tc.TraceID, p.spans.NewSpanID(), tc.SpanID,
			obs.SpanEvict, time.Now(), 0, int64(victim))
	}
}

func (p *Pool) quarantineAdd(id policy.PageID) {
	p.quarMu.Lock()
	p.quarantined[id] = struct{}{}
	p.quarMu.Unlock()
	// Wake the background writer (if running); the buffered kick makes the
	// wake-up lossless without blocking this failure path.
	select {
	case p.writerKick <- struct{}{}:
	default:
	}
}

func (p *Pool) quarantineRemove(id policy.PageID) {
	p.quarMu.Lock()
	delete(p.quarantined, id)
	p.quarMu.Unlock()
}

// Quarantined returns the number of resident pages whose most recent dirty
// write-back failed. Such pages keep their data in memory and are retried
// on later eviction sweeps and flushes; a successful write-back, flush or
// delete removes them from quarantine.
func (p *Pool) Quarantined() int {
	p.quarMu.Lock()
	defer p.quarMu.Unlock()
	return len(p.quarantined)
}

// BreakerOpenStripes returns how many storage stripes currently have an
// open circuit (fail-fast; past-cooldown stripes count until a probe closes
// them). Zero when the breaker is disabled.
func (p *Pool) BreakerOpenStripes() int { return p.breaker.OpenStripes() }

// restoreVictim re-registers a page in the replacer after an eviction
// attempt was abandoned (the page was pinned, or its write-back failed):
// Evict had already removed it, and without re-registration the page could
// never be chosen again. Restore reinstates residency without fabricating
// a reference — recording a phantom access here would reset the page's
// Backward K-distance and could keep an otherwise-cold page resident. The
// shard's shared latch holds the mapping still across the check and the
// two calls: DeletePage removes the page from the replacer under the
// exclusive latch, so its Remove lands either before the check (which
// then fails) or after the Restore — never in between, where it would
// leave the replacer holding a page the pool does not.
func (p *Pool) restoreVictim(id policy.PageID, f *frame) {
	sh := p.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.table[id] != f {
		return // the page moved on (deleted or reloaded elsewhere)
	}
	p.replacer.Restore(id)
	p.replacer.SetEvictable(id, true)
}

// pinResident pins page id if it is resident (waiting out any in-flight
// load or write-back, interruptibly), without touching hit/miss accounting
// or recording a reference. Maintenance paths (flush, the background
// writer) use it. A false return means the page is not resident or ctx
// expired while waiting.
func (p *Pool) pinResident(ctx context.Context, id policy.PageID) (*frame, bool) {
	sh := p.shardOf(id)
	for {
		sh.mu.RLock()
		f := sh.table[id]
		if f == nil {
			sh.mu.RUnlock()
			return nil, false
		}
		switch f.state.Load() {
		case frameWriting:
			done := f.writeDone
			sh.mu.RUnlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, false
			}
			continue
		case frameLoading:
			f.pinAdd(1)
			ready := f.ready
			sh.mu.RUnlock()
			select {
			case <-ready:
			case <-ctx.Done():
				p.abandonPin(sh, id, f)
				return nil, false
			}
			if f.err != nil {
				if f.pinAdd(-1) == 0 {
					p.freePush(f)
				}
				return nil, false
			}
			return f, true
		default:
			f.pinAdd(1)
			sh.mu.RUnlock()
			return f, true
		}
	}
}

// flushFrame writes the pinned frame back if dirty. The dirty bit is
// cleared before the write so a concurrent modification is not lost: it
// re-marks the page dirty and a later flush or eviction persists it.
// flushMu serialises concurrent flushers of the same frame (the background
// writer, FlushPage, a flush sweep), so a nil return means the frame's
// data was durably on disk at some point during the call — never that
// another flusher's still-undecided write looked clean in passing.
func (p *Pool) flushFrame(ctx context.Context, id policy.PageID, f *frame) error {
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	if !f.dirty.Load() {
		// Clean under flushMu means the last write genuinely completed (or
		// the page was never written since load): nothing to retry, so clear
		// any stale quarantine entry.
		p.quarantineRemove(id)
		return nil
	}
	f.dirty.Store(false)
	if err := p.writePage(ctx, id, f.data); err != nil {
		f.dirty.Store(true)
		p.shardOf(id).countWriteFailure(err)
		return fmt.Errorf("flushing page %d: %w", id, err)
	}
	p.shardOf(id).writeBacks.Add(1)
	p.quarantineRemove(id)
	return nil
}

// FlushPage writes page id back to storage if dirty. The page stays
// resident.
func (p *Pool) FlushPage(id policy.PageID) error {
	return p.FlushPageCtx(context.Background(), id)
}

// FlushPageCtx is FlushPage charged against ctx: the write-back and its
// retry backoff observe the caller's deadline. On a durable backend a nil
// return means the page image has reached the write-ahead log (group
// commit included), which is the backend's acknowledged-write contract.
func (p *Pool) FlushPageCtx(ctx context.Context, id policy.PageID) error {
	if p.closed.Load() {
		return ErrClosed
	}
	f, ok := p.pinResident(ctx, id)
	if !ok {
		return fmt.Errorf("flush page %d: %w", id, ErrPageNotResident)
	}
	defer p.releasePin(id, f, false)
	return p.flushFrame(ctx, id, f)
}

// FlushAll writes every dirty resident page back to storage and then asks
// the backend for its durability barrier (storage.Backend.Flush — a
// checkpoint, on the durable file backend). A failed write-back does not
// stop the sweep: every shard is visited, every flushable page flushed, and
// the failures are returned joined (errors.Is unwraps them individually).
// Failed pages stay dirty and resident, so a retry after the fault clears
// loses nothing. The barrier runs only when the sweep completed cleanly: a
// checkpoint must not declare durability over pages whose write-back
// failed.
func (p *Pool) FlushAll() error {
	if p.closed.Load() {
		return ErrClosed
	}
	return p.flushAll(context.Background())
}

// FlushAllCtx is FlushAll charged against ctx: write-backs and their retry
// backoff observe the deadline, and an expired context ends the sweep
// early (the cancellation is reported in the joined error; unreached pages
// simply stay dirty and resident).
func (p *Pool) FlushAllCtx(ctx context.Context) error {
	if p.closed.Load() {
		return ErrClosed
	}
	return p.flushAll(ctx)
}

func (p *Pool) flushAll(ctx context.Context) error {
	var errs []error
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		ids := make([]policy.PageID, 0, len(sh.table))
		for id := range sh.table {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				errs = append(errs, fmt.Errorf("bufferpool: flush sweep cancelled: %w", err))
				return errors.Join(errs...)
			}
			f, ok := p.pinResident(ctx, id)
			if !ok {
				continue // evicted or deleted meanwhile; nothing to flush
			}
			if err := p.flushFrame(ctx, id, f); err != nil {
				errs = append(errs, err)
			}
			p.releasePin(id, f, false)
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	if err := p.backend.Flush(ctx); err != nil {
		return fmt.Errorf("bufferpool: storage flush barrier: %w", err)
	}
	return nil
}

// DeletePage evicts page id from the pool (it must be unpinned) and
// deallocates it on disk.
func (p *Pool) DeletePage(id policy.PageID) error {
	if p.closed.Load() {
		return ErrClosed
	}
	sh := p.shardOf(id)
	for {
		sh.mu.Lock()
		f := sh.table[id]
		if f == nil {
			sh.mu.Unlock()
			break
		}
		if f.state.Load() == frameWriting {
			done := f.writeDone
			sh.mu.Unlock()
			<-done
			continue
		}
		if f.state.Load() == frameLoading || !f.tryClaim() {
			sh.mu.Unlock()
			return fmt.Errorf("bufferpool: delete of pinned page %d", id)
		}
		// Remove from the replacer while still holding the latch: once the
		// table entry is gone a concurrent fetch could re-load the page, and
		// a late Remove would strip the new residency's registration. The
		// claim excludes lock-free probes, exactly as in eviction.
		p.replacer.Remove(id)
		hotClear(sh, id, f)
		delete(sh.table, id)
		f.state.Store(frameFree)
		sh.mu.Unlock()
		f.dirty.Store(false)
		p.quarantineRemove(id)
		p.freePush(f)
		break
	}
	p.poisonRemove(id)
	return p.backend.Deallocate(id)
}

// Stats returns a snapshot of pool counters, aggregated from the per-shard
// atomics without a global lock. Under concurrent load the counters are
// individually exact but not mutually consistent.
func (p *Pool) Stats() Stats {
	var s Stats
	for i := range p.shards {
		sh := &p.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Coalesced += sh.coalesced.Load()
		s.Evictions += sh.evictions.Load()
		s.WriteBacks += sh.writeBacks.Load()
		s.ReadErrors += sh.readErrors.Load()
		s.WriteErrors += sh.writeErrors.Load()
		s.ReadRetries += sh.readRetries.Load()
		s.WriteRetries += sh.writeRetries.Load()
		s.ReadsRejected += sh.readsRejected.Load()
		s.WritesRejected += sh.writesRejected.Load()
	}
	s.BreakerTrips = p.breaker.Trips()
	s.CorruptDetected = p.corruptDetected.Load()
	s.CorruptRepaired = p.corruptRepaired.Load()
	s.CorruptQuarantined = p.corruptQuarantined.Load()
	s.ScrubPages = p.scrubPages.Load()
	s.ScrubCorrupt = p.scrubCorrupt.Load()
	return s
}

// FastHits returns how many hits were served by the latch-free probe — a
// subset of Stats().Hits, kept out of Stats so the pool's accounting
// remains field-for-field comparable with the Serial reference pool
// (serial_test.go).
func (p *Pool) FastHits() uint64 {
	var n uint64
	for i := range p.shards {
		// latchedHits first: it is bumped after hits, so the difference
		// never goes negative under concurrent fetches.
		latched := p.shards[i].latchedHits.Load()
		n += p.shards[i].hits.Load() - latched
	}
	return n
}

// NumFrames returns the pool capacity in frames.
func (p *Pool) NumFrames() int { return len(p.frames) }

// NumShards returns the number of page-table latch partitions.
func (p *Pool) NumShards() int { return len(p.shards) }

// Resident reports whether page id currently occupies a frame (including
// one whose read is still in flight, but not a victim mid write-back).
func (p *Pool) Resident(id policy.PageID) bool {
	sh := p.shardOf(id)
	sh.mu.RLock()
	f := sh.table[id]
	resident := f != nil && f.state.Load() != frameWriting
	sh.mu.RUnlock()
	return resident
}
