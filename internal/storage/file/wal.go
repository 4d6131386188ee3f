// WAL record codec and group-committed log for the file backend.
//
// The log is a sequence of length-prefixed, checksummed frames — the same
// framing discipline as the network wire protocol (internal/server/wire),
// applied to durability instead of transport:
//
//	bytes 0-3  payload length, big-endian
//	bytes 4-7  CRC32-C (Castagnoli) of the payload, big-endian
//	bytes 8... payload
//
// Payloads are typed by their first byte:
//
//	kind 1 (page image): page id (8 bytes BE) + the full 4 KByte image
//	kind 2 (alloc):      page id (8 bytes BE)
//
// There is no other kind: pages are never freed.
//
// Recovery replays records in order and stops at the first frame that is
// short, oversized, or fails its checksum: everything before that point
// reached the log (every acknowledged write was fsynced before it
// returned), everything after is a torn tail from the crash and is
// discarded. A frame that passes its checksum but does not decode (an
// unknown kind, a wrong length, a negative page id) is no torn tail — it
// reached the log whole, and so may the acknowledged records after it — so
// recovery fails with errBadRecord instead of dropping them. Replay is
// redo-only and idempotent — records carry full page images, so applying a
// prefix twice converges to the same page file.
//
// Every record waits in the log's own buffer instead of costing a write()
// of its own. The buffer goes to the file in LSN order, so the file is
// always a prefix of the log: by a synchronous page write just before its
// slot's pwrite (so it costs one write() and one fsync), by the
// group-commit leader just before its fsync (so a checkpoint still syncs
// every logged write-behind image before it fsyncs pages.db), before
// RepairPage scans the file, and on its own once it passes logBufSize. A killed process loses what is buffered: only
// records no caller was told were durable, since a write is acknowledged
// only after the fsync that follows its record's write().
//
// Not every image has a record: a fresh page's first image written behind
// goes to pages.db alone (file.go) and sets the log's unlogged flag. The
// group-commit leader, once it has fixed its sync target, fsyncs pages.db
// when the flag is set and only then the log, so a record made durable
// never names a page whose image is not durable (the page file before the
// log).
package file

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/storage"
)

const (
	recHeader = 8 // length + CRC
	// Record kinds.
	recKindPage  = 1
	recKindAlloc = 2
	// maxPayload bounds a sane payload: kind + page id + page image.
	maxPayload = 1 + 8 + storage.PageSize
	// logBufSize is how many bytes of records nobody waits on the log
	// buffers before it writes them out unasked.
	logBufSize = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTornRecord reports a frame that cannot have been fully synced: replay
// treats it (and everything after) as the crash's torn tail.
var errTornRecord = errors.New("file: torn wal record")

// errBadRecord reports a frame that passed its checksum but does not
// decode: written whole by a writer this version does not understand, so
// replay refuses the log rather than truncate it there.
var errBadRecord = errors.New("file: wal record passed its checksum but does not decode")

// walRecord is a decoded WAL payload.
type walRecord struct {
	kind byte
	page policy.PageID
	img  []byte // page image for recKindPage, else nil
}

// appendRecord appends the frame of one record — header (length, CRC32-C)
// and payload (kind, page id, img) — to dst and returns the extended slice.
// img is nil for alloc records.
func appendRecord(dst []byte, kind byte, p policy.PageID, img []byte) []byte {
	n := 1 + 8 + len(img)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, 0, 0, 0, 0) // CRC, stamped once the payload is in place
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p))
	dst = append(dst, img...)
	binary.BigEndian.PutUint32(dst[len(dst)-n-4:], crc32.Checksum(dst[len(dst)-n:], crcTable))
	return dst
}

// decodeRecord parses a payload that passed its checksum into a walRecord;
// every failure is errBadRecord. The image slice aliases the payload.
func decodeRecord(payload []byte) (walRecord, error) {
	if len(payload) < 1+8 {
		return walRecord{}, fmt.Errorf("%w: payload %d bytes", errBadRecord, len(payload))
	}
	rec := walRecord{
		kind: payload[0],
		page: policy.PageID(binary.BigEndian.Uint64(payload[1:9])),
	}
	switch rec.kind {
	case recKindPage:
		if len(payload) != 1+8+storage.PageSize {
			return walRecord{}, fmt.Errorf("%w: page record payload %d bytes", errBadRecord, len(payload))
		}
		rec.img = payload[9:]
	case recKindAlloc:
		if len(payload) != 1+8 {
			return walRecord{}, fmt.Errorf("%w: alloc record payload %d bytes", errBadRecord, len(payload))
		}
	default:
		return walRecord{}, fmt.Errorf("%w: unknown kind %d (this version logs only page images, kind %d, and allocations, kind %d)",
			errBadRecord, rec.kind, recKindPage, recKindAlloc)
	}
	if rec.page < 0 {
		return walRecord{}, fmt.Errorf("%w: negative page id %d", errBadRecord, rec.page)
	}
	return rec, nil
}

// readRecord reads one framed payload from r. It returns io.EOF at a clean
// end of log and errTornRecord (wrapped) for a short, oversized, or
// checksum-failing frame.
func readRecord(r io.Reader) ([]byte, error) {
	var hdr [recHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %v", errTornRecord, err)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length == 0 || length > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d", errTornRecord, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", errTornRecord, err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.BigEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, frame says %08x", errTornRecord, got, want)
	}
	return payload, nil
}

// wal is the group-committed write-ahead log. Appends serialise on the
// mutex and receive an LSN; sync(lsn) returns once everything up to lsn is
// fsynced, batching concurrent committers behind one fsync: the first
// waiter becomes the leader and syncs everything appended so far, followers
// park on the condition variable and are released by the leader's
// broadcast (the same leader/follower shape as the pool's read coalescing).
type wal struct {
	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	appended uint64 // LSN of the last appended record
	synced   uint64 // LSN through which the log is known durable
	syncing  bool   // a leader's fsync is in flight
	err      error  // sticky: a failed write or fsync poisons the log
	// buf holds, under mu, the frames appended but not yet written to the
	// file, in LSN order; append encodes every record here, so a page
	// image is copied once, into the log's own buffer. It is made at its
	// full capacity — logBufSize plus one frame — so no record allocates.
	buf []byte

	// pages is the page file. unlogged says a first image went to its slot
	// with no record (Store.write) and awaits the pages.db fsync the next
	// group-commit leader makes before the log's own.
	pages    *os.File
	unlogged atomic.Bool

	appends   atomic.Uint64
	syncs     atomic.Uint64
	writes    atomic.Uint64 // write() calls on the log file
	pageSyncs atomic.Uint64 // pages.db fsyncs leaders made ahead of the log's
	// bytes is the current log length, buffered frames included — the
	// store's MaxWALBytes forced-checkpoint trigger and the WALBytes stats
	// gauge read it.
	bytes atomic.Int64
}

// newWAL wraps the log file f, whose current length it takes as the
// log's (reset truncates a log only when it is not already empty), in front
// of the page file pages.
func newWAL(f, pages *os.File) (*wal, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("file: sizing wal: %w", err)
	}
	w := &wal{f: f, pages: pages, buf: make([]byte, 0, logBufSize+recHeader+maxPayload)}
	w.cond = sync.NewCond(&w.mu)
	w.bytes.Store(fi.Size())
	return w, nil
}

// append frames one record (kind, page id, img — nil for alloc) into the
// buffer and returns its LSN; it writes to the file only when the buffer
// has passed logBufSize. The caller must sync(lsn) before acknowledging a
// page write, which writes the buffer out ahead of its fsync; a record
// nobody waits on rides the next sync (see Store.Allocate and Store.Write).
func (w *wal) append(kind byte, p policy.PageID, img []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	start := len(w.buf)
	w.buf = appendRecord(w.buf, kind, p, img)
	size := len(w.buf) - start
	if len(w.buf) >= logBufSize {
		if err := w.writeLocked(); err != nil {
			return 0, err
		}
	}
	w.appended++
	w.appends.Add(1)
	w.bytes.Add(int64(size))
	return w.appended, nil
}

// writeLocked writes the buffered frames to the file in one write() and
// empties the buffer. A failure poisons the log. The caller holds mu.
func (w *wal) writeLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("file: wal append: %w", mapNoSpace(err))
		w.cond.Broadcast()
		return w.err
	}
	w.writes.Add(1)
	w.buf = w.buf[:0]
	return nil
}

// flush writes the buffered records to the file, for a reader of the file
// (RepairPage's scan) that must see every appended record.
func (w *wal) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.writeLocked()
}

// sync blocks until the log is durable through lsn (group commit).
func (w *wal) sync(lsn uint64) error {
	w.mu.Lock()
	for {
		if w.err != nil {
			w.mu.Unlock()
			return w.err
		}
		if w.synced >= lsn {
			w.mu.Unlock()
			return nil
		}
		if !w.syncing {
			break // become the leader
		}
		w.cond.Wait() // follower: the in-flight fsync may cover lsn
	}
	// lsn may still be buffered; the fsync covers only what is in the file.
	if err := w.writeLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	w.syncing = true
	target := w.appended
	w.mu.Unlock()

	// The target is fixed, so every first image a record through it names
	// was written, and flagged, before this check.
	var err error
	if w.unlogged.Swap(false) {
		if err = w.pages.Sync(); err != nil {
			err = fmt.Errorf("file: page file fsync ahead of the log: %w", err)
		} else {
			w.pageSyncs.Add(1)
		}
	}
	if err == nil {
		if err = w.f.Sync(); err != nil {
			err = fmt.Errorf("file: wal fsync: %w", err)
		}
	}

	w.mu.Lock()
	w.syncing = false
	if err != nil {
		w.err = err
	} else {
		w.synced = target
		w.syncs.Add(1)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// syncAll makes every appended record durable; it issues no fsync when
// none is pending.
func (w *wal) syncAll() error {
	w.mu.Lock()
	lsn := w.appended
	w.mu.Unlock()
	return w.sync(lsn)
}

// reset truncates the log after a checkpoint; a log with nothing appended
// since the last reset is already empty and is left alone. The caller must
// exclude concurrent appenders (the store's checkpoint lock does) and have
// synced every record (so none is buffered).
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.bytes.Load() == 0 {
		return nil
	}
	if err := w.f.Truncate(0); err != nil {
		w.err = fmt.Errorf("file: wal truncate: %w", err)
		return w.err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.err = fmt.Errorf("file: wal seek: %w", err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("file: wal truncate fsync: %w", err)
		return w.err
	}
	w.appended, w.synced = 0, 0
	w.bytes.Store(0)
	return nil
}
