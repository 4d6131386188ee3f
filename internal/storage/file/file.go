// Package file implements the durable storage backend: a preallocated page
// file fronted by a group-committed write-ahead log, with redo-only crash
// recovery on open. It is the storage.DurableBackend the simulated disk is
// not — a write that has returned survives kill -9.
//
// Directory layout:
//
//	pages.db   page p's slot at byte offset p × slot size. A slot is the
//	           4 KByte image followed by a 24-byte integrity trailer
//	           (magic, write epoch, page id, CRC32-C — see integrity.go).
//	           Sparse: holes read as zeros, matching a freshly allocated
//	           page. It grows growStep slots at a time.
//	wal.log    the write-ahead log (see wal.go for the record format)
//	meta.json  allocation state (format, next page id, write epoch) as of
//	           the last checkpoint, rewritten atomically (tmp + rename)
//
// Pages are never freed: ids are handed out in order, and every id below
// the next one is a live page. Meta.json therefore holds no free list, and
// Open refuses one that does.
//
// Write-ahead invariant: every state change (page write, allocate) appends
// a checksummed WAL record to the log's buffer (wal.go) before the
// operation returns, but one: a page's first image written behind (below).
// A synchronous page write also writes the buffer out before its slot's
// pwrite, so a process killed mid-pwrite leaves a torn slot that its record
// rebuilds, and fsyncs the log through its record before returning —
// group-committed, one write() and one fsync: only the fsync makes either
// durable.
// Two kinds of record do not wait for that fsync. An allocate's record is
// made durable by the next fsync or checkpoint, and anything that can make
// the page observable (the page's own image, or a page pointing at it) is
// appended after it, so the sync acknowledging that record covers the
// allocation too. A page write under storage.WithWriteBehind (the pool's
// flush sweep, and the bulk load's heap pages) is made durable by the next
// fsync or, at the latest, the next checkpoint.
//
// First images: a write behind of a page allocated since the last
// checkpoint and not written since appends no record. The page has no
// durable image to lose, so its slot alone takes the image, and the log
// notes that an unlogged image waits. The next group-commit leader fsyncs
// pages.db before the log (wal.sync) — page file before log — so nothing a
// log fsync makes durable names a page whose image is not. Every other
// write is logged: a synchronous one, a second image, and a write of a page
// allocated before the last checkpoint (its hole is a durable image). No
// logged copy of a first image exists until the next checkpoint, so
// RepairPage cannot heal one damaged before it.
//
// Recovery replays the log as a prefix, so a crash — a power loss, or a
// kill that loses the buffer — can drop only images nobody was told were
// durable (write-behind ones, and synchronous ones whose fsync had not
// returned) and allocations nothing durable references (those ids are
// handed out again). The page-file write itself is not synced; a
// checkpoint (Flush) syncs the log (its leader fsyncing pages.db first when
// a first image waits), fsyncs the page file, publishes the allocation
// state, and truncates the log — in that order, so a slot torn by a crash
// during the page-file fsync is still covered by a durable record.
// Recovery therefore replays the log over the last checkpoint's page file,
// stopping at the torn tail, and immediately checkpoints so the replayed
// state is itself durable. A frame that passed its checksum reached the log
// whole, so one that does not decode is no torn tail: Open fails rather
// than drop it and every acknowledged record after it.
package file

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

const (
	pagesName = "pages.db"
	walName   = "wal.log"
	metaName  = "meta.json"
)

// formatTrailer is the one on-disk slot format, recorded in meta.json:
// every slot carries a 24-byte integrity trailer and reads verify it. A
// meta.json without the field (format 0: bare 4 KByte slots, no trailers)
// is a store from before PR 8; Open refuses it rather than serve its pages
// unverified.
const formatTrailer = 1

// slotSize is the on-disk footprint of one page: image plus trailer.
const slotSize = storage.PageSize + trailerLen

// growStep is how many slots pages.db grows by when an allocation or a
// replayed record passes its end (≈ 1 MiB, sparse): one ftruncate per 256
// pages instead of one per page.
const growStep = 256

// meta is the checkpointed allocation state. Free is never written; it is
// read only to refuse a store whose writer freed pages.
type meta struct {
	Format   int     `json:"format,omitempty"`
	NextPage int64   `json:"next_page"`
	Free     []int64 `json:"free,omitempty"`
	Epoch    uint64  `json:"epoch,omitempty"`
}

// Config tunes a Store beyond its directory.
type Config struct {
	// MaxWALBytes forces a checkpoint from the write path once the WAL
	// grows past this many bytes, bounding both log size and recovery
	// replay time. Zero (or negative) leaves the log unbounded — it then
	// empties only at explicit Flush barriers and Close.
	MaxWALBytes int64
	// VerifyReads is inert.
	//
	// Deprecated: every read verifies its slot's trailer. The field exists
	// only so the benchmark harness, whose bench/workloads.go sets it, still
	// compiles. The next change to bench/ deletes it together with that
	// literal.
	VerifyReads bool
}

// Store is the file-backed durable storage backend.
type Store struct {
	dir   string
	cfg   Config
	pages *os.File
	wal   *wal

	// stripes latch page access: a write holds its stripe exclusively
	// across the WAL append and the page-file write, so the page file
	// applies same-page images in LSN order and a concurrent read never
	// sees a torn image.
	stripes [storage.DefaultStripes]stripe

	// ckpt excludes checkpoints from in-flight operations: writes and
	// allocs hold it shared for their whole span (any fsync included), a
	// checkpoint holds it exclusively — so the log it truncates describes
	// only page-file state it has just made durable.
	ckpt sync.RWMutex

	// allocMu guards the allocation state: pages [0, next) are live.
	allocMu sync.Mutex
	next    policy.PageID
	size    int64         // current pages.db length
	extends atomic.Uint64 // ftruncate calls that grew pages.db
	// fresh marks, one bit per page id from freshBase (next as of the
	// last checkpoint), the pages allocated since that checkpoint and not
	// written since: a page with no durable image, whose first image a
	// write behind may put in its slot without a log record. Under allocMu.
	freshBase policy.PageID
	fresh     []uint64

	// epoch numbers slot writes store-wide; each trailer records the
	// epoch of the write that produced it, and meta.json persists the
	// high-water mark at every checkpoint.
	epoch atomic.Uint64
	// ckptPending serialises forced (MaxWALBytes) checkpoints so at most
	// one writer detours into the barrier while the rest stream on.
	ckptPending atomic.Bool

	reads       atomic.Uint64
	writes      atomic.Uint64
	allocated   atomic.Uint64
	checkpoints atomic.Uint64
	recovered   atomic.Uint64

	recovery storage.RecoveryInfo
	closed   atomic.Bool
}

var _ storage.DurableBackend = (*Store)(nil)

// Open opens (or creates) the store rooted at dir with the zero Config: an
// unbounded WAL.
func Open(dir string) (*Store, error) { return OpenConfig(dir, Config{}) }

// OpenConfig opens (or creates) the store rooted at dir. Reopening an
// existing store replays the write-ahead log over the page file —
// redo-only, stopping at the crash's torn tail — and checkpoints, so the
// store is always consistent and the log empty when Open returns.
// Recovery() reports what replay did.
//
// A directory holding a page file but no meta.json is refused rather than
// silently reinitialised: meta.json is the store's identity, and treating
// its loss as "fresh store" would quietly orphan every page.
func OpenConfig(dir string, cfg Config) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("file: creating %s: %w", dir, err)
	}
	_, metaErr := os.Stat(filepath.Join(dir, metaName))
	reopened := metaErr == nil
	if !reopened {
		if fi, err := os.Stat(filepath.Join(dir, pagesName)); err == nil && fi.Size() > 0 {
			return nil, fmt.Errorf("file: %s has a %d-byte page file but no %s; refusing to reinitialise over existing data", dir, fi.Size(), metaName)
		}
	}

	pages, err := os.OpenFile(filepath.Join(dir, pagesName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("file: opening page file: %w", err)
	}
	walF, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		pages.Close()
		return nil, fmt.Errorf("file: opening wal: %w", err)
	}
	w, err := newWAL(walF, pages)
	if err != nil {
		pages.Close()
		walF.Close()
		return nil, err
	}
	s := &Store{dir: dir, cfg: cfg, pages: pages, wal: w}
	if fi, err := pages.Stat(); err == nil {
		s.size = fi.Size()
	}
	if reopened {
		s.recovery.Reopened = true
		if err := s.loadMeta(); err != nil {
			s.closeFiles()
			return nil, err
		}
		replayed, tornTail, err := s.replay()
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		s.recovery.Replayed = replayed
		s.recovery.TailDropped = tornTail
		s.recovered.Store(uint64(replayed))
		if err := s.trimTail(); err != nil {
			s.closeFiles()
			return nil, err
		}
		// Make the replayed state durable and clear the log: recovery must
		// be idempotent, not cumulative, across repeated crashes.
		if err := s.checkpoint(); err != nil {
			s.closeFiles()
			return nil, err
		}
	} else {
		// A fresh store checkpoints immediately so meta.json exists and a
		// reopen before any traffic recovers an empty, valid store.
		if err := s.checkpoint(); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) closeFiles() {
	s.pages.Close()
	s.wal.f.Close()
}

// loadMeta restores the allocation state of the last checkpoint.
func (s *Store) loadMeta() error {
	raw, err := os.ReadFile(filepath.Join(s.dir, metaName))
	if err != nil {
		return fmt.Errorf("file: reading meta: %w", err)
	}
	var m meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("file: parsing meta: %w", err)
	}
	switch m.Format {
	case formatTrailer:
	case 0:
		return fmt.Errorf("file: %s is a format-0 store (bare 4 KByte slots, no integrity trailers); no release since PR 8 writes that format and this one does not read it", s.dir)
	default:
		return fmt.Errorf("file: meta declares unknown format %d", m.Format)
	}
	if len(m.Free) > 0 {
		return fmt.Errorf("file: %s lists %d free pages in %s; this version never frees a page and cannot reuse them", s.dir, len(m.Free), metaName)
	}
	s.epoch.Store(m.Epoch)
	s.next = policy.PageID(m.NextPage)
	return nil
}

// writeMeta atomically publishes the current allocation state.
func (s *Store) writeMeta() error {
	s.allocMu.Lock()
	m := meta{Format: formatTrailer, NextPage: int64(s.next), Epoch: s.epoch.Load()}
	s.allocMu.Unlock()
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("file: encoding meta: %w", err)
	}
	tmp := filepath.Join(s.dir, metaName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("file: creating meta: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("file: writing meta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("file: syncing meta: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("file: closing meta: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, metaName)); err != nil {
		return fmt.Errorf("file: publishing meta: %w", err)
	}
	return syncDir(s.dir)
}

// syncDir makes a rename in dir durable. A filesystem that cannot fsync a
// directory at all says so with EINVAL; that is no error of this store's,
// so it is dropped. Any other failure means the published meta.json may not
// survive a power loss, and is returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("file: opening %s to sync it: %w", dir, err)
	}
	err = d.Sync()
	d.Close()
	if err != nil && !dirSyncUnsupported(err) {
		return fmt.Errorf("file: syncing %s after publishing meta: %w", dir, err)
	}
	return nil
}

// dirSyncUnsupported reports whether err is a directory fsync's "not
// supported here" answer (EINVAL) rather than a failure to make it durable.
func dirSyncUnsupported(err error) bool { return errors.Is(err, syscall.EINVAL) }

// replay applies the write-ahead log to the page file, stopping at the
// first torn or corrupt frame. It returns the number of records applied
// and whether a torn tail was dropped; a whole frame that does not decode
// is an error (errBadRecord), not a tail.
func (s *Store) replay() (int, bool, error) {
	if _, err := s.wal.f.Seek(0, 0); err != nil {
		return 0, false, fmt.Errorf("file: seeking wal: %w", err)
	}
	return s.replayFrom(s.wal.f)
}

// replayFrom is replay's core, parameterised over the log source so tests
// can drive it against copies (idempotence: applying the same log twice
// yields identical page files).
func (s *Store) replayFrom(r io.Reader) (int, bool, error) {
	count := 0
	for {
		payload, err := readRecord(r)
		if err == io.EOF {
			return count, false, nil
		}
		if err != nil {
			// Torn tail: a frame past the last fsync. Nothing from here on
			// was acknowledged; drop it.
			return count, true, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The frame passed its checksum, so it reached the log whole:
			// dropping it would drop every acknowledged record after it.
			return count, false, fmt.Errorf("file: wal record %d: %w", count+1, err)
		}
		if err := s.apply(rec); err != nil {
			return count, false, err
		}
		count++
	}
}

// apply redoes one WAL record against the page file and allocation state.
func (s *Store) apply(rec walRecord) error {
	switch rec.kind {
	case recKindAlloc:
		s.allocMu.Lock()
		if rec.page >= s.next {
			s.next = rec.page + 1
		}
		err := s.extendLocked(rec.page)
		s.allocMu.Unlock()
		return err
	case recKindPage:
		s.allocMu.Lock()
		err := s.extendLocked(rec.page)
		s.allocMu.Unlock()
		if err != nil {
			return err
		}
		// writeSlotLocked lays down a fresh trailer with the image, so
		// replay doubles as repair: a slot corrupted by the crash (torn or
		// bit-rotted) is rewritten verified as long as the WAL covers it.
		if err := s.writeSlotLocked(rec.page, rec.img); err != nil {
			return fmt.Errorf("file: replaying page %d: %w", rec.page, err)
		}
		return nil
	}
	return fmt.Errorf("file: replaying unknown record kind %d", rec.kind)
}

// slotOff is the byte offset of page p's slot in pages.db.
func (s *Store) slotOff(p policy.PageID) int64 { return int64(p) * slotSize }

// extendLocked grows pages.db to cover page p, to the end of p's growStep.
// Caller holds allocMu.
func (s *Store) extendLocked(p policy.PageID) error {
	if (int64(p)+1)*slotSize <= s.size {
		return nil
	}
	want := (int64(p)/growStep + 1) * growStep * slotSize
	if err := s.pages.Truncate(want); err != nil {
		return fmt.Errorf("file: extending page file to page %d: %w", p, mapNoSpace(err))
	}
	s.size = want
	s.extends.Add(1)
	return nil
}

// trimTail cuts pages.db back to the live pages after replay. A slot past
// them was written for an allocation the crash lost (its record never left
// the log's buffer, or was never synced); cut, that id reads as zeros when
// it is handed out again instead of as the lost page's image.
func (s *Store) trimTail() error {
	live := int64(s.next) * slotSize
	if s.size <= live {
		return nil
	}
	if err := s.pages.Truncate(live); err != nil {
		return fmt.Errorf("file: trimming page file to %d pages: %w", s.next, err)
	}
	s.size = live
	return nil
}

// isAllocated reports whether p is a live page.
func (s *Store) isAllocated(p policy.PageID) bool {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	return p >= 0 && p < s.next
}

// stripe is one latch partition of the page file.
type stripe struct {
	sync.RWMutex
	// slot is where a slot write stages image and trailer, under the
	// exclusive latch, so both go down in one write: the CRC is computed
	// over this scratch, so a write allocates nothing (a stack array would
	// escape through crc32's dispatch).
	slot [slotSize]byte
}

func (s *Store) stripe(p policy.PageID) *stripe {
	return &s.stripes[storage.StripeIndex(p, storage.DefaultStripes)]
}

// Read copies page p into buf.
func (s *Store) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(buf) != storage.PageSize {
		return fmt.Errorf("file: read buffer is %d bytes, want %d", len(buf), storage.PageSize)
	}
	if !s.isAllocated(p) {
		return fmt.Errorf("%w: read of page %d", storage.ErrPageNotAllocated, p)
	}
	lk := s.stripe(p)
	lk.RLock()
	_, err := s.pages.ReadAt(buf, s.slotOff(p))
	if err == nil {
		// Verify under the same latch hold as the payload read: a write
		// slipping between the two would pair a new image with an old
		// trailer and report corruption that never happened.
		err = s.verifySlotLocked(p, buf)
	}
	lk.RUnlock()
	if err != nil {
		return fmt.Errorf("file: reading page %d: %w", p, err)
	}
	s.reads.Add(1)
	return nil
}

// Write makes page p's new image durable: WAL append under the page's
// stripe latch (so the page file applies same-page images in log order),
// the log's buffer written out to the file, page-file write, then the
// group-committed fsync of the log before returning. A write under
// storage.WithWriteBehind skips the write-out and the wait: its record
// rides the next sync, and the next checkpoint syncs it at the latest. A
// write behind of p's first image since an allocation after the last
// checkpoint appends no record at all: the next sync fsyncs pages.db ahead
// of the log instead. When MaxWALBytes is set, the write that pushes the
// log past the bound detours through a checkpoint on its way out.
func (s *Store) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if err := s.write(ctx, p, buf); err != nil {
		return err
	}
	s.maybeCheckpoint()
	return nil
}

func (s *Store) write(ctx context.Context, p policy.PageID, buf []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(buf) != storage.PageSize {
		return fmt.Errorf("file: write buffer is %d bytes, want %d", len(buf), storage.PageSize)
	}
	if !s.isAllocated(p) {
		return fmt.Errorf("%w: write of page %d", storage.ErrPageNotAllocated, p)
	}
	s.ckpt.RLock()
	defer s.ckpt.RUnlock()
	// Under an adopted trace, wal_append and wal_fsync spans split a slow
	// write into latch-held log time versus group-commit wait.
	tc := obs.TraceFrom(ctx)
	behind := storage.WriteBehind(ctx)
	lk := s.stripe(p)
	lk.Lock()
	// A fresh page's first image, written behind, goes to its slot alone:
	// no durable image of the page exists for a torn slot to lose, and the
	// next log fsync fsyncs pages.db first (wal.sync).
	unlogged := s.claimFresh(p) && behind
	var lsn uint64
	if !unlogged {
		// A synchronous write's record reaches the log file before the
		// slot's pwrite starts: a process killed mid-pwrite leaves the slot
		// torn, and replay rebuilds it only from a record the file holds.
		// The sync below then finds it written and only fsyncs.
		appendSpan := tc.Start(obs.SpanWALAppend)
		var err error
		lsn, err = s.wal.append(recKindPage, p, buf)
		if err == nil && !behind {
			err = s.wal.flush()
		}
		appendSpan.Finish(int64(p))
		if err != nil {
			lk.Unlock()
			return err
		}
	}
	werr := s.writeSlotLocked(p, buf)
	if werr == nil && unlogged {
		s.wal.unlogged.Store(true)
	}
	lk.Unlock()
	if werr != nil {
		return fmt.Errorf("file: writing page %d: %w", p, werr)
	}
	if !behind {
		syncSpan := tc.Start(obs.SpanWALFsync)
		err := s.wal.sync(lsn)
		syncSpan.Finish(int64(p))
		if err != nil {
			return err
		}
	}
	s.writes.Add(1)
	return nil
}

// claimFresh reports whether p is fresh — allocated since the last
// checkpoint and not written since — and leaves it not fresh, since the
// caller is about to write it. The caller holds p's stripe latch, so two
// writes of p cannot both see it fresh, nor apply out of log order.
func (s *Store) claimFresh(p policy.PageID) bool {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	i := int(p - s.freshBase)
	if i < 0 || i>>6 >= len(s.fresh) {
		return false
	}
	bit := uint64(1) << (i & 63)
	fresh := s.fresh[i>>6]&bit != 0
	s.fresh[i>>6] &^= bit
	return fresh
}

// maybeCheckpoint takes the MaxWALBytes-forced durability barrier, at most
// one at a time. The caller's own write is already durable (WAL-acked) or
// was written behind ahead of a barrier of its own, so a failed checkpoint
// must not fail it retroactively; the error is dropped here and real log
// trouble resurfaces through the wal's sticky error on the next operation.
func (s *Store) maybeCheckpoint() {
	if s.cfg.MaxWALBytes <= 0 || s.wal.bytes.Load() <= s.cfg.MaxWALBytes {
		return
	}
	if !s.ckptPending.CompareAndSwap(false, true) {
		return
	}
	defer s.ckptPending.Store(false)
	_ = s.checkpoint()
}

// Allocate reserves the next page id and logs the allocation so it
// survives a crash before the next checkpoint.
// It writes nothing to the log file and does not wait for an fsync: the
// record waits in the log's buffer and rides the next synchronous write or
// sync. The log is replayed as a prefix, and whatever makes the page
// observable is appended after this record, so the fsync that acknowledges
// it — or a checkpoint's meta.json — covers the allocation as well.
func (s *Store) Allocate() (policy.PageID, error) {
	s.ckpt.RLock()
	defer s.ckpt.RUnlock()
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	p := s.next
	if err := s.extendLocked(p); err != nil {
		return 0, err
	}
	if _, err := s.wal.append(recKindAlloc, p, nil); err != nil {
		return 0, err
	}
	s.next++
	i := int(p - s.freshBase)
	for i>>6 >= len(s.fresh) {
		s.fresh = append(s.fresh, 0)
	}
	s.fresh[i>>6] |= 1 << (i & 63)
	s.allocated.Add(1)
	return p, nil
}

// Flush is the checkpoint: sync the log through its last record (the writes
// made behind; pages.db first if a first image waits unlogged), fsync the
// page file, forget which pages are fresh, publish the allocation state,
// truncate the log (unless nothing was appended since the last checkpoint).
// It runs with no operation in flight (the checkpoint lock), so the
// truncated log describes only page-file state the fsync just made durable.
func (s *Store) Flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.checkpoint()
}

func (s *Store) checkpoint() error {
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	// The log goes before the page file's own fsync: until it completes a
	// crash can tear a slot written behind, and only a durable record
	// repairs it. Its group-commit leader fsyncs pages.db first when an
	// unlogged first image waits, as every leader does.
	if err := s.wal.syncAll(); err != nil {
		return err
	}
	if err := s.pages.Sync(); err != nil {
		return fmt.Errorf("file: syncing page file: %w", err)
	}
	// Every slot is durable now, first images and holes alike: no page is
	// fresh, and no unlogged image waits.
	s.wal.unlogged.Store(false)
	s.allocMu.Lock()
	s.freshBase, s.fresh = s.next, s.fresh[:0]
	s.allocMu.Unlock()
	if err := s.writeMeta(); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	return nil
}

// Stats returns the operation ledger.
func (s *Store) Stats() storage.Stats {
	return storage.Stats{
		Reads:            s.reads.Load(),
		Writes:           s.writes.Load(),
		Allocated:        s.allocated.Load(),
		WALAppends:       s.wal.appends.Load(),
		WALSyncs:         s.wal.syncs.Load(),
		WALBytes:         s.wal.bytes.Load(),
		Checkpoints:      s.checkpoints.Load(),
		RecoveredRecords: s.recovered.Load(),
	}
}

// SyscallCounts reports the write() calls made on the log and the ftruncate
// calls that grew pages.db: the system calls the log buffer and the growth
// step batch, which storage.Stats does not count.
func (s *Store) SyscallCounts() (logWrites, extends uint64) {
	return s.wal.writes.Load(), s.extends.Load()
}

// Recovery reports what crash recovery did when this store was opened.
func (s *Store) Recovery() storage.RecoveryInfo { return s.recovery }

// NumPages returns the number of live pages.
func (s *Store) NumPages() int {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	return int(s.next)
}

// Close checkpoints and releases the store's files. Idempotent.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	cerr := s.checkpoint()
	if err := s.pages.Close(); cerr == nil {
		cerr = err
	}
	if err := s.wal.f.Close(); cerr == nil {
		cerr = err
	}
	return cerr
}
