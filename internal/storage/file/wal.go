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
	err      error  // sticky: a failed fsync poisons the log
	// frame is where append encodes each record, under mu: a page image is
	// copied once, into the log's own buffer, and no record allocates.
	frame []byte

	appends atomic.Uint64
	syncs   atomic.Uint64
	// bytes is the current log length — the store's MaxWALBytes
	// forced-checkpoint trigger and the WALBytes stats gauge read it.
	bytes atomic.Int64
}

func newWAL(f *os.File) *wal {
	w := &wal{f: f}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// append frames and writes one record (kind, page id, img — nil for alloc)
// and returns its LSN. The caller must sync(lsn) before acknowledging a
// page write; an alloc record and a page write made behind ride the next
// sync (see Store.Allocate and Store.Write).
func (w *wal) append(kind byte, p policy.PageID, img []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	w.frame = appendRecord(w.frame[:0], kind, p, img)
	if _, err := w.f.Write(w.frame); err != nil {
		w.err = fmt.Errorf("file: wal append: %w", mapNoSpace(err))
		w.cond.Broadcast()
		return 0, w.err
	}
	w.appended++
	w.appends.Add(1)
	w.bytes.Add(int64(len(w.frame)))
	return w.appended, nil
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
	w.syncing = true
	target := w.appended
	w.mu.Unlock()

	err := w.f.Sync()

	w.mu.Lock()
	w.syncing = false
	if err != nil {
		w.err = fmt.Errorf("file: wal fsync: %w", err)
	} else {
		w.synced = target
		w.syncs.Add(1)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("file: wal fsync: %w", err)
	}
	return nil
}

// syncAll makes every appended record durable; it issues no fsync when
// none is pending.
func (w *wal) syncAll() error {
	w.mu.Lock()
	lsn := w.appended
	w.mu.Unlock()
	return w.sync(lsn)
}

// reset truncates the log after a checkpoint. The caller must exclude
// concurrent appenders (the store's checkpoint lock does).
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
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
