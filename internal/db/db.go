// Package db assembles the storage substrates — simulated disk, buffer
// pool, heap file, B-tree — into the miniature database of the paper's
// Example 1.1: customer records referenced through a clustered B-tree
// index on CUST-ID. A lookup touches index pages root-to-leaf and then the
// record's data page, producing exactly the alternating I1, R1, I2, R2,
// ... reference pattern whose buffering behaviour motivates LRU-K.
package db

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/heapfile"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// ErrClosed reports an operation on a database after Close.
var ErrClosed = errors.New("db: database is closed")

// ErrNotFound reports a lookup or update of a customer id that is not in
// the index. It is typed so remote layers (internal/server) can map it to
// a wire status instead of string-matching.
var ErrNotFound = errors.New("db: customer not found")

// Config sizes the database instance.
type Config struct {
	// Frames is the buffer pool size in pages. The paper's Example 1.1
	// discussion centres on 101 frames (root + all leaf pages + 1); the
	// load packs 20,000 customers' index into 100 pages, 99 leaves and the
	// root.
	Frames int
	// K is the LRU-K history depth of the pool's replacer (1 = classical
	// LRU). Default 2. The replacer's §2.1 periods are not configurable:
	// Open derives them from Frames and K.
	K int
	// Backend, when non-nil, is the storage backend the database runs on —
	// typically storage/file's durable store. The database I/Os through
	// exactly this value, wrapped in nothing (the pool itself gates,
	// times and traces every read and write), and closes it on Close; a
	// test that wants injected faults or corruption hands in an
	// already-wrapped backend and keeps the wrapper's handle. Nil selects
	// a fresh simulated disk. A backend implementing
	// storage.DurableBackend switches the database into
	// durable mode: a catalog page anchors the B-tree root so the dataset
	// survives restarts, FlushAll checkpoints, and acknowledged updates
	// reach the write-ahead log before UpdateCustomerCtx returns.
	Backend storage.Backend
	// ScrubInterval enables the pool's background integrity scrubber at
	// this cadence. Zero (the default) disables it.
	ScrubInterval time.Duration
	// DiskRetry is inert.
	//
	// Deprecated: nothing reads it; the pool makes exactly one disk attempt
	// per read or write. It exists only so the benchmark harness, whose
	// bench/workloads.go sets it, still compiles. The next change to bench/
	// deletes it together with that literal.
	DiskRetry bufferpool.RetryConfig
	// DiskBreaker tunes the pool's disk circuit breaker. The zero value
	// disables it.
	DiskBreaker bufferpool.BreakerConfig
	// Obs, when non-nil, instruments the whole stack into this registry:
	// the pool's fetch/miss/coalesce/sweep histograms, the disk's
	// read/write latency, the LRU-K policy's decision counters and
	// eviction trace, and scrape-time collectors over every counter
	// StatsSnapshot reports (see DESIGN.md §12 for the catalog). Nil (the
	// default) leaves every hot path uninstrumented.
	Obs *obs.Registry
	// Spans, when non-nil, arms distributed-tracing span recording through
	// the stack: sampled operations leave pool_fetch / pool_miss /
	// pool_coalesce / breaker_reject / disk_read / disk_write
	// spans from the pool in this recorder, and an evict event for every
	// page a sampled miss evicted.
	// The unsampled path stays within the pool's hit-latency budget. WAL
	// spans (wal_append, wal_fsync) come from the file backend's own
	// file.Config.Spans, which the caller wires when building the backend.
	Spans *obs.SpanRecorder

	// evictionTraceSize lets this package's reconciliation tests retain
	// every trace record; zero selects evictionTraceDefault.
	evictionTraceSize int
	// recordSize is the customer record size in bytes; this package's tests
	// shrink it. Zero selects the paper's 2000, two records per 4 KByte
	// page.
	recordSize int
}

// evictionTraceDefault caps the eviction trace ring (victim selections and
// corruption fates) an Obs-instrumented database keeps.
const evictionTraceDefault = 512

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 2
	}
	if c.recordSize == 0 {
		c.recordSize = 2000
	}
	return c
}

// correlatedReferencePeriod is the replacer's §2.1.1 time-out in ticks,
// counted in the order the replacer's event ring applies references. It
// spans UpdateCustomerCtx's read-then-write of one record page (one tick
// apart when alone) plus the references other in-flight requests make in
// between, about three each: with 32 concurrent updaters over 100 frames,
// over 96 % of the pairs still collapse. The RIP is core.DefaultRIP(Frames, K).
const correlatedReferencePeriod = 8

// catalogPage is the durable catalog's fixed page id: the first page a
// fresh durable database allocates, before the B-tree root. Its image
// anchors reopen: magic, root page id, customer count, and record size
// (see DESIGN.md §13). It stays zeroed — and the database unopenable —
// until the first checkpoint publishes it, so a crash before that point
// reports a deterministic error instead of serving a half-loaded dataset.
const catalogPage policy.PageID = 0

// catalogMagic marks a published catalog page.
var catalogMagic = [8]byte{'L', 'R', 'U', 'K', 'C', 'A', 'T', '1'}

// DB is the miniature customer database.
type DB struct {
	cfg       Config
	backend   storage.Backend        // what the pool I/Os through: Config.Backend itself
	durable   storage.DurableBackend // non-nil when Config.Backend is durable
	attached  bool                   // durable reopen: dataset recovered from the catalog
	count     atomic.Int64           // loaded customer count (persisted in the catalog)
	pool      *bufferpool.Pool
	replacer  *core.SyncReplacer
	customers *heapfile.File
	index     *btree.Tree

	// evTrace is the eviction trace ring (nil unless Config.Obs is set).
	evTrace *obs.EvictionTrace

	// closed fences public operations after Close; closeMu serialises Close
	// itself and guards closeErr for idempotent replay.
	closed   atomic.Bool
	closeMu  sync.Mutex
	closeErr error
}

// Open creates an empty database.
func Open(cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("db: frame count must be positive, got %d", cfg.Frames)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("db: K must be at least 1, got %d", cfg.K)
	}
	if cfg.recordSize <= 8 || cfg.recordSize > heapfile.MaxRecord {
		return nil, fmt.Errorf("db: record size %d outside (8, %d]", cfg.recordSize, heapfile.MaxRecord)
	}
	// The storage stack is the caller's backend (or a fresh simulated
	// disk), wrapped in nothing: the pool's I/O gate carries the breaker,
	// the disk histograms and the disk spans.
	backend := cfg.Backend
	if backend == nil {
		backend = sim.New(sim.ServiceModel{})
	}
	durable, _ := backend.(storage.DurableBackend)
	repl := core.NewSyncReplacer(cfg.K, core.Options{
		CorrelatedReferencePeriod: correlatedReferencePeriod,
		RetainedInformationPeriod: core.DefaultRIP(cfg.Frames, cfg.K),
	})
	var poolMetrics bufferpool.Metrics
	var evTrace *obs.EvictionTrace
	var corruptionHook func(policy.PageID, storage.CorruptKind, bool)
	if cfg.Obs != nil {
		// Latency instruments must exist before the pool and backend serve
		// their first operation; scrape-time collectors are registered
		// after assembly (registerObs below). The trace ring likewise: the
		// pool's corruption hook records into it from the first fetch on.
		poolMetrics = newPoolMetrics(cfg.Obs)
		size := cfg.evictionTraceSize
		if size <= 0 {
			size = evictionTraceDefault
		}
		evTrace = obs.NewEvictionTrace(size)
		corruptionHook = func(p policy.PageID, kind storage.CorruptKind, repaired bool) {
			rep := int64(0)
			if repaired {
				rep = 1
			}
			// Clock carries the corruption kind, KDist the repaired flag —
			// see obs.TraceCorrupt for the field convention.
			evTrace.Record(obs.TraceRecord{Kind: obs.TraceCorrupt, Page: int64(p), Clock: int64(kind), KDist: rep})
		}
	}
	pool := bufferpool.NewWithConfig(backend, cfg.Frames, repl,
		bufferpool.Config{
			Breaker:        cfg.DiskBreaker,
			Metrics:        poolMetrics,
			ScrubInterval:  cfg.ScrubInterval,
			CorruptionHook: corruptionHook,
			Spans:          cfg.Spans,
		})
	db := &DB{
		cfg:      cfg,
		backend:  backend,
		durable:  durable,
		pool:     pool,
		replacer: repl,
		evTrace:  evTrace,
	}
	if durable != nil && durable.Recovery().Reopened {
		// Durable reopen: recovery has replayed the WAL; re-anchor the
		// dataset from the checkpointed catalog.
		if err := db.attach(); err != nil {
			return nil, err
		}
	} else {
		if durable != nil {
			// Fresh durable store: reserve the catalog page ahead of the
			// B-tree root. Its magic stays zeroed until the first
			// checkpoint publishes it.
			pg, err := pool.NewPage()
			if err != nil {
				return nil, fmt.Errorf("db: allocating catalog page: %w", err)
			}
			id := pg.ID()
			pg.Unpin(true)
			if id != catalogPage {
				return nil, fmt.Errorf("db: catalog page allocated as %d, want %d (backend not fresh?)", id, catalogPage)
			}
		}
		db.customers = heapfile.New(pool)
		idx, err := btree.New(pool)
		if err != nil {
			return nil, fmt.Errorf("db: creating index: %w", err)
		}
		db.index = idx
	}
	if cfg.Obs != nil {
		// Scrape-time collectors; the trace ring and hot-path histograms
		// were armed before the first I/O above.
		repl.SetTracer(policyTraceAdapter{trace: db.evTrace})
		db.registerObs(cfg.Obs)
	}
	pool.Start()
	return db, nil
}

// attach re-opens the dataset of a recovered durable backend: validate the
// catalog, re-attach the B-tree at the recorded root, and rebuild the heap
// file's page directory from one index leaf scan. Every page it touches
// flows through the pool, so recovery warms the buffer exactly like a cold
// workload would.
func (db *DB) attach() error {
	pg, err := db.pool.Fetch(catalogPage)
	if err != nil {
		return fmt.Errorf("db: reading catalog: %w", err)
	}
	data := pg.Data()
	var magic [8]byte
	copy(magic[:], data[:8])
	root := policy.PageID(binary.LittleEndian.Uint64(data[8:16]))
	count := int64(binary.LittleEndian.Uint64(data[16:24]))
	recSize := int(binary.LittleEndian.Uint64(data[24:32]))
	pg.Unpin(false)
	if magic != catalogMagic {
		return fmt.Errorf("db: catalog page has no valid checkpoint (magic %x) — the store crashed before its first FlushAll", magic)
	}
	if recSize != db.cfg.recordSize {
		return fmt.Errorf("db: store was checkpointed with record size %d, configured %d", recSize, db.cfg.recordSize)
	}
	idx, err := btree.Attach(db.pool, root)
	if err != nil {
		return fmt.Errorf("db: attaching index: %w", err)
	}
	if int64(idx.Len()) != count {
		return fmt.Errorf("db: catalog records %d customers, index holds %d", count, idx.Len())
	}
	// One leaf scan rebuilds the heap page directory in first-seen order
	// (load order, since keys were loaded ascending).
	var heapPages []policy.PageID
	seen := make(map[policy.PageID]bool)
	if err := idx.ScanRange(math.MinInt64, math.MaxInt64, func(key int64, rid heapfile.RID) bool {
		if !seen[rid.Page] {
			seen[rid.Page] = true
			heapPages = append(heapPages, rid.Page)
		}
		return true
	}); err != nil {
		return fmt.Errorf("db: rebuilding record directory: %w", err)
	}
	file, err := heapfile.Attach(db.pool, heapPages)
	if err != nil {
		return fmt.Errorf("db: attaching heap file: %w", err)
	}
	db.index = idx
	db.customers = file
	db.count.Store(count)
	db.attached = true
	return nil
}

// writeCatalogCtx publishes the current dataset anchor (root, count, record
// size) into the catalog page. Called after FlushAll's sweep so the catalog
// a recovered store reads never points past pages the log has not seen.
func (db *DB) writeCatalogCtx(ctx context.Context) error {
	pg, err := db.pool.FetchCtx(ctx, catalogPage)
	if err != nil {
		return fmt.Errorf("db: writing catalog: %w", err)
	}
	lk := pg.Latch()
	lk.Lock()
	data := pg.Data()
	copy(data[:8], catalogMagic[:])
	binary.LittleEndian.PutUint64(data[8:16], uint64(db.index.Root()))
	binary.LittleEndian.PutUint64(data[16:24], uint64(db.count.Load()))
	binary.LittleEndian.PutUint64(data[24:32], uint64(db.cfg.recordSize))
	lk.Unlock()
	// Flushed while still pinned, like a durable update's record page: an
	// eviction between an unpin and a flush by id would fail the publish.
	err = pg.FlushCtx(ctx)
	pg.Unpin(false)
	if err != nil {
		return fmt.Errorf("db: flushing catalog: %w", err)
	}
	return nil
}

// Close stops the database's background work (the pool's scrubber),
// flushes every dirty page, and fences further operations behind
// ErrClosed. It is idempotent: repeated calls return the first call's
// flush result without repeating the work.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed.Load() {
		return db.closeErr
	}
	db.closed.Store(true)
	db.closeErr = db.pool.Close()
	if cerr := db.backend.Close(); cerr != nil && db.closeErr == nil {
		db.closeErr = cerr
	}
	return db.closeErr
}

// Attached reports whether this instance re-opened an existing durable
// dataset (crash recovery path) rather than starting empty. Callers use it
// to skip the bulk load.
func (db *DB) Attached() bool { return db.attached }

// CustomerCount returns the number of customer records loaded (or, after a
// durable reopen, recovered from the catalog).
func (db *DB) CustomerCount() int { return int(db.count.Load()) }

// Recovery returns the durable backend's crash-recovery report; ok is
// false when the database runs on a non-durable (simulated) backend.
func (db *DB) Recovery() (storage.RecoveryInfo, bool) {
	if db.durable == nil {
		return storage.RecoveryInfo{}, false
	}
	return db.durable.Recovery(), true
}

// minLoadFrames is the smallest pool LoadCustomers accepts: the index
// builder pins the rightmost leaf and at most one other page, whatever the
// index's height. The heap pages the load fills take no frame.
const minLoadFrames = 2

// LoadCustomers bulk-loads n customer records keyed 0..n-1 into a database
// that holds none. Each record begins with its CUST-ID (8 bytes
// little-endian) followed by filler. One heapfile.Load allocates the heap
// pages in order, handing each record's RID to a btree.Appender in key
// order, which builds the index at its right edge and packs every node off
// it full; then it builds and writes the heap pages on
// runtime.GOMAXPROCS(0) goroutines. The pages, the index and the order of
// allocations are those inserting each record would leave. Each heap page
// goes to disk once, past the pool's frames, and is readable when
// LoadCustomers returns; a failed heap page write fails the load, reported
// at the lowest failed page. The index is built once: nothing adds a key
// after the load.
func (db *DB) LoadCustomers(n int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if n <= 0 {
		return fmt.Errorf("db: customer count must be positive, got %d", n)
	}
	if db.attached || db.DataPages() > 0 {
		return fmt.Errorf("db: LoadCustomers needs an empty database; this one holds %d customers", db.CustomerCount())
	}
	if db.cfg.Frames < minLoadFrames {
		return fmt.Errorf("db: LoadCustomers needs at least %d frames, the pool has %d", minLoadFrames, db.cfg.Frames)
	}
	index := db.index.NewAppender()
	defer index.Close()
	err := db.customers.Load(n, db.cfg.recordSize,
		func(i int, rec []byte) { binary.LittleEndian.PutUint64(rec, uint64(i)) },
		func(i int, rid heapfile.RID) error {
			if err := index.Append(int64(i), rid); err != nil {
				return fmt.Errorf("db: indexing customer %d: %w", i, err)
			}
			return nil
		})
	var lerr *heapfile.LoadError
	if errors.As(err, &lerr) {
		return fmt.Errorf("db: loading customer %d: %w", lerr.Record, lerr.Err)
	}
	if err != nil {
		return err
	}
	db.count.Store(int64(n))
	return nil
}

// Lookup retrieves the customer record through the index — the I, R
// reference pair of Example 1.1. The caller receives its own copy of the
// record.
func (db *DB) Lookup(custID int64) ([]byte, error) {
	return db.LookupAppendCtx(context.Background(), nil, custID)
}

// LookupCtx is Lookup charged against ctx (see LookupAppendCtx).
func (db *DB) LookupCtx(ctx context.Context, custID int64) ([]byte, error) {
	return db.LookupAppendCtx(ctx, nil, custID)
}

// LookupAppendCtx is the lookup every other form calls: it appends the
// customer record to dst and returns the extended slice, so a caller with
// a reusable buffer (the server's reply frame) gets the record in one copy
// straight from the page, and a nil dst yields a freshly allocated record
// the caller owns. On error dst is returned unchanged. The index descent
// and the record-page fetch (coalesced waits included) observe ctx's
// deadline, so a server can bound a request end to end. A
// missing id reports ErrNotFound.
func (db *DB) LookupAppendCtx(ctx context.Context, dst []byte, custID int64) ([]byte, error) {
	if db.closed.Load() {
		return dst, ErrClosed
	}
	rid, ok, err := db.index.GetCtx(ctx, custID)
	if err != nil {
		return dst, fmt.Errorf("db: lookup %d: %w", custID, err)
	}
	if !ok {
		return dst, fmt.Errorf("%w: %d", ErrNotFound, custID)
	}
	return db.customers.AppendCtx(ctx, dst, rid)
}

// UpdateCustomerCtx overwrites the filler of a customer record in place (a
// TPC-A-style read-modify-write), producing the intra-transaction
// correlated reference pair of §2.1.1: the record page is referenced once
// to read the record and again to write it. The filler (bytes 8.., after
// the CUST-ID) is set in the page itself, so an update copies no record.
// The index descent and both fetches observe ctx (see LookupAppendCtx).
func (db *DB) UpdateCustomerCtx(ctx context.Context, custID int64, fill byte) error {
	if db.closed.Load() {
		return ErrClosed
	}
	rid, ok, err := db.index.GetCtx(ctx, custID)
	if err != nil {
		return fmt.Errorf("db: update %d: %w", custID, err)
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, custID)
	}
	// On a durable backend the record's page reaches the write-ahead log
	// before the update returns, so a crash after the caller sees success
	// cannot lose it. The page stays pinned from the in-place write to the
	// log append — unpinning in between would let an eviction turn an update
	// its own write-back had already logged into a reported failure.
	if err := db.customers.FillCtx(ctx, rid, 8, fill, db.durable != nil); err != nil {
		return fmt.Errorf("db: update %d: %w", custID, err)
	}
	return nil
}

// ScanCustomersCtx sequentially scans the whole customer file (Example
// 1.2's batch scan) and returns the number of records seen. The sweep stops
// early when ctx's deadline expires, reporting the context's error.
func (db *DB) ScanCustomersCtx(ctx context.Context) (int, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	n := 0
	err := db.customers.ScanCtx(ctx, func(heapfile.RID, []byte) bool {
		n++
		return true
	})
	return n, err
}

// ScrubSweep runs one bounded integrity sweep through the pool (see
// bufferpool.Pool.ScrubSweep); operators and tests use it to scrub on
// demand when no background ScrubInterval is configured.
func (db *DB) ScrubSweep(ctx context.Context, limit int) int { return db.pool.ScrubSweep(ctx, limit) }

// FlushAll writes every dirty resident page back to disk, visiting every
// page even when some write-backs fail and returning the failures joined.
// On a durable backend a clean sweep is a checkpoint: the storage flush
// barrier runs, and the catalog page is (re)published afterwards so a
// recovered store reopens at exactly this dataset.
func (db *DB) FlushAll() error {
	return db.FlushAllCtx(context.Background())
}

// FlushAllCtx is FlushAll charged against ctx: write-backs observe the
// deadline, and an expired context ends the sweep early.
func (db *DB) FlushAllCtx(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.pool.FlushAllCtx(ctx); err != nil {
		return err
	}
	if db.durable != nil {
		// Publish the catalog only after every page image the new anchor
		// depends on is in the log; a crash between the two leaves the
		// previous catalog governing, which update-in-place traffic keeps
		// consistent (DESIGN.md §13).
		return db.writeCatalogCtx(ctx)
	}
	return nil
}

// StatsSnapshot is a point-in-time aggregate of every counter the database
// exposes — pool, disk, quarantine, and page-directory sizes — in one
// JSON-serialisable struct. The network service serves it under the STATS
// op.
type StatsSnapshot struct {
	Pool         bufferpool.Stats `json:"pool"`
	PoolHitRatio float64          `json:"pool_hit_ratio"`
	// Quarantined is the number of pages whose most recent write-back
	// failed and that await a retry by the next eviction sweep that
	// selects them or the next flush.
	Quarantined int `json:"quarantined"`
	// BreakerOpen reports whether the disk circuit breaker currently
	// refuses I/O (false with the breaker disabled or healthy).
	BreakerOpen bool             `json:"breaker_open"`
	Policy      core.PolicyStats `json:"policy"`
	// AccessBatch holds the replacer's event-ring drain counters.
	AccessBatch core.BatchStats `json:"access_batch"`
	Disk        storage.Stats   `json:"disk"`
	// PoisonedPages counts page ids quarantined as unrepairable-corrupt.
	PoisonedPages int `json:"poisoned_pages"`
	IndexPages    int `json:"index_pages"`
	DataPages     int `json:"data_pages"`
}

// StatsSnapshot collects the combined counter aggregate. The counters are
// read without a global pause, so under concurrency the snapshot is
// per-counter exact but not mutually atomic — fine for monitoring, which
// is its job. It remains readable after Close.
func (db *DB) StatsSnapshot() StatsSnapshot {
	s := db.pool.Stats()
	snap := StatsSnapshot{
		Pool:          s,
		PoolHitRatio:  s.HitRatio(),
		Quarantined:   db.pool.Quarantined(),
		BreakerOpen:   db.pool.BreakerOpen(),
		Policy:        db.replacer.PolicyStats(),
		Disk:          db.backend.Stats(),
		PoisonedPages: len(db.pool.PoisonedPages()),
		IndexPages:    len(db.index.Pages()),
		DataPages:     len(db.customers.Pages()),
	}
	snap.AccessBatch = db.replacer.BatchStats()
	return snap
}

// PoolStats returns the buffer-pool counters.
func (db *DB) PoolStats() bufferpool.Stats { return db.pool.Stats() }

// IndexPages returns the number of index node pages.
func (db *DB) IndexPages() int { return len(db.index.Pages()) }

// DataPages returns the number of heap-file data pages.
func (db *DB) DataPages() int { return len(db.customers.Pages()) }

// ResidentByClass counts resident pages per class, the quantity Example
// 1.1 reasons about ("50 B-tree leaf pages and 50 record pages" under
// LRU).
func (db *DB) ResidentByClass() (index, data int) {
	for _, p := range db.index.Pages() {
		if db.pool.Resident(p) {
			index++
		}
	}
	for _, p := range db.customers.Pages() {
		if db.pool.Resident(p) {
			data++
		}
	}
	return index, data
}
