// Package storage defines the page-storage seam of the stack: the Backend
// interface every page store implements, the shared Stats ledger, the
// typed corruption error and Repairer seam, and the page-to-stripe hash
// (StripeIndex). The test injector that wraps a backend (fault and
// corruption injection) lives in storage/storagetest.
//
// Two backends exist: storage/sim, the in-memory simulated disk the paper's
// experiments run on, and storage/file, a durable page file with a
// group-committed write-ahead log and redo-only crash recovery. The buffer
// pool, the db layer, and the observability assembly depend only on the
// interface. The pool is the one caller of Read and Write and gates each
// call itself (circuit breaker, latency histograms, disk spans), so
// nothing wraps a serving backend.
package storage

import (
	"context"
	"errors"

	"repro/internal/policy"
)

// PageSize is the page size in bytes for every backend, the paper's
// canonical 4 KByte page (§2.1.2).
const PageSize = 4096

// DefaultStripes is the stripe count both backends partition their page
// latches into. The striping is each backend's own: nothing above the
// Backend interface sees a stripe. Must be a power of two.
const DefaultStripes = 32

// ErrPageNotAllocated reports access to a page id that was never allocated.
// Pages are never freed: every allocated id stays valid for the store's
// life.
var ErrPageNotAllocated = errors.New("storage: page not allocated")

// Stats reports cumulative backend activity. The WAL and checkpoint
// counters are zero on backends without a log (the simulator).
type Stats struct {
	Reads     uint64
	Writes    uint64
	Allocated uint64
	// ServiceMicros is the total simulated service time of all operations
	// (simulator only; wall latency of either backend is the pool's disk
	// read and write histograms).
	ServiceMicros int64
	// WALAppends and WALSyncs count write-ahead-log records appended and
	// group-commit fsync batches issued (file backend only). Appends per
	// sync is the group-commit batching factor.
	WALAppends uint64
	WALSyncs   uint64
	// Checkpoints counts durability barriers taken: page file fsynced, meta
	// rewritten, WAL truncated (file backend only).
	Checkpoints uint64
	// RecoveredRecords counts WAL records replayed by the most recent open
	// (file backend only).
	RecoveredRecords uint64
	// WALBytes is the current write-ahead-log length in bytes — a gauge,
	// not a counter: it grows with appends and drops to zero at every
	// checkpoint (file backend only).
	WALBytes int64
}

// Backend is a page store: the disk under the buffer pool. Implementations
// must be safe for concurrent use; Read and Write on different pages should
// proceed in parallel (both stores latch their pages in DefaultStripes
// stripes keyed by StripeIndex, privately).
//
// Read and Write honour ctx only at natural blocking points; both require
// buf to hold exactly PageSize bytes.
type Backend interface {
	// Read copies page p into buf.
	Read(ctx context.Context, p policy.PageID, buf []byte) error
	// Write stores buf as the new contents of page p. On a durable backend
	// a nil return means the write is on stable storage (logged and
	// group-committed), though not yet checkpointed — unless ctx carries
	// the WithWriteBehind mark: a marked write is applied, and logged
	// unless it is the first image of a page allocated since the last
	// checkpoint, but becomes durable only at the next Flush.
	Write(ctx context.Context, p policy.PageID, buf []byte) error
	// Allocate reserves a fresh zeroed page and returns its id. A durable
	// backend may fail (log append, file extension); the simulator never
	// does. On a durable backend the allocation is logged but not synced
	// before Allocate returns: it becomes durable with the next acknowledged
	// Write (which syncs every record before its own) or the next Flush, so
	// a crash can lose only an allocation nothing durable refers to.
	Allocate() (policy.PageID, error)
	// Flush is the durability barrier: on a durable backend it checkpoints
	// (WAL synced through every write made behind, page file synced, WAL
	// truncated); on the simulator it is a no-op. The pool calls it at the
	// end of every FlushAll sweep, so the server's FLUSH barrier doubles as
	// the checkpoint trigger.
	Flush(ctx context.Context) error
	// Stats returns a snapshot of cumulative activity. Counters are
	// individually exact but not mutually consistent under concurrency.
	Stats() Stats
	// NumPages returns the number of currently allocated pages.
	NumPages() int
	// Close releases the backend's resources; a second Close is a no-op.
	// Callers flush first. A durable backend checkpoints on Close
	// (file.Store), so a clean close leaves no log to replay; the
	// simulated disk has nothing to make durable.
	Close() error
}

// writeBehindKey is the context.Context key of the write-behind mark. An
// unexported zero-size type keeps the key collision-free without allocating.
type writeBehindKey struct{}

// WithWriteBehind marks ctx so that a Write under it may return before it is
// durable: it becomes durable at the next Flush. The mark is a context value,
// so it crosses the wrappers as a trace context does. The pool's flush sweep,
// whose barrier follows, and its WriteNewPage (the bulk load) are the users.
// On the file backend a marked write of a page's first image since an
// allocation after the last checkpoint is not logged: the page file is
// fsynced ahead of the log's next fsync instead, and RepairPage has no copy
// of that image until the checkpoint. Marking a context allocates; a caller
// writing many pages marks one context and reuses it.
func WithWriteBehind(ctx context.Context) context.Context {
	return context.WithValue(ctx, writeBehindKey{}, true)
}

// WriteBehind reports whether ctx carries the WithWriteBehind mark.
func WriteBehind(ctx context.Context) bool {
	return ctx.Value(writeBehindKey{}) != nil
}

// RecoveryInfo reports what a durable backend's open-time recovery did.
type RecoveryInfo struct {
	// Replayed is the number of WAL records applied.
	Replayed int
	// TailDropped reports that replay stopped at a truncated or
	// corrupt-checksum record before the log's end — the expected shape of
	// a crash mid-append; everything before the tear was applied.
	TailDropped bool
	// Reopened reports that the backend attached to an existing store
	// (false for a freshly initialised directory).
	Reopened bool
}

// DurableBackend is implemented by backends whose pages survive process
// restart. The db layer keys its catalog/reattach protocol off it.
type DurableBackend interface {
	Backend
	// Recovery reports what the open-time WAL replay did.
	Recovery() RecoveryInfo
}

// StripeIndex hashes page p onto one of n stripes (n a power of two) with
// the SplitMix64 finaliser, so adjacent page ids land on different stripes.
// Both backends latch by it, and the buffer pool indexes its hot array by
// it. It is a spreading hash only: it scatters adjacent pages, so no
// failure or slowdown of a real device is confined to one stripe, and no
// caller keys a breaker, ledger or histogram by it.
func StripeIndex(p policy.PageID, n int) int {
	z := uint64(p) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) & uint64(n-1))
}

// Op identifies a class of storage operations: the buffer pool's I/O gate
// names the attempt it makes with it, and storagetest's fault rules match
// on it.
type Op uint8

const (
	// OpRead matches Backend.Read.
	OpRead Op = 1 << iota
	// OpWrite matches Backend.Write.
	OpWrite
	// OpAllocate matches Backend.Allocate. It is deliberately outside
	// OpAny: allocation faults (a full device, most usefully injected as
	// ErrNoSpace) must be opted into explicitly so page-transfer storms
	// keep their exact read/write ledgers.
	OpAllocate
)

// OpAny matches every page-transfer storage operation (reads and writes).
const OpAny = OpRead | OpWrite

// WithFaults returns inner unchanged.
//
// Deprecated: the fault injector is storagetest.Wrap. This inert
// pass-through remains only because the benchmark module's wrapper probe
// calls it; it goes with that probe.
func WithFaults(inner Backend) Backend { return inner }

// WithCorruption returns inner unchanged.
//
// Deprecated: the corruption injector is storagetest.Wrap. This
// inert pass-through remains only because the benchmark module's wrapper
// probe calls it; it goes with that probe.
func WithCorruption(inner Backend) Backend { return inner }
