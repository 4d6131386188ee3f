// Package heapfile implements record storage on slotted pages over the
// buffer pool: the "data pages" of the paper's Example 1.1. Records are
// addressed by RID (page, slot) and read back through the pool so every
// record access is a page reference the replacement policy sees. Records
// are never deleted, so space is never freed: Insert places a record in the
// last page, else in a new one. Load, the bulk load's path, lays out the
// same pages in two passes: it allocates them in order on the caller's
// goroutine, then builds and writes each once, past the pool, on
// runtime.GOMAXPROCS(0) goroutines.
//
// Page layout (little-endian):
//
//	bytes 0-1   numSlots
//	bytes 2-3   freeEnd: low end of the record data region (grows down)
//	bytes 4...  slot directory: {recOffset uint16, recLen uint16} per slot
//	...freeEnd  free space
//	freeEnd...  record data (allocated from the page end downward)
//
// Slots are only ever appended. Readers treat a slot whose recOffset is 0
// (no record can start inside the header) or carries the high bit (a
// tombstone) as holding no record, because that check validates bytes read
// from disk.
package heapfile

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bufferpool"
	"repro/internal/policy"
	"repro/internal/storage"
)

const (
	headerSize = 4
	slotSize   = 4
	// MaxRecord is the largest storable record: a page minus header and one
	// slot entry.
	MaxRecord = storage.PageSize - headerSize - slotSize
	// tombstone is the high offset bit. Page offsets are below 4096, so no
	// live slot carries it.
	tombstone = 0x8000
)

// slotDead reports whether a slot offset denotes no record.
func slotDead(off uint16) bool { return off == 0 || off&tombstone != 0 }

// Errors reported by heap-file operations.
var (
	ErrRecordTooLarge = errors.New("heapfile: record exceeds page capacity")
	ErrInvalidRID     = errors.New("heapfile: no record at RID")
)

// RID addresses a record: the page holding it and its slot index.
type RID struct {
	Page policy.PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// File is a heap file of variable-length records.
//
// Concurrency: AppendCtx, GetCtx, FillCtx and ScanCtx are safe to call
// concurrently (with each other and themselves): record bytes are read
// under the page's frame latch held shared (bufferpool.Page.Latch) and
// written under it held exclusively, taken after the pin so it is never
// held across a fetch. Insert mutates the page directory and must be
// serialised externally (the db layer loads single-threaded before
// serving).
type File struct {
	pool *bufferpool.Pool
	// pages is the in-memory page directory. A production system would
	// persist it as a linked list of directory pages; the replacement
	// study only needs data-page references to flow through the pool.
	pages []policy.PageID
}

// New returns an empty heap file over the pool.
func New(pool *bufferpool.Pool) *File {
	if pool == nil {
		panic("heapfile: nil pool")
	}
	return &File{pool: pool}
}

// Attach re-opens a heap file whose data pages already exist in the pool's
// storage backend (a durable store after crash recovery), with the given
// page directory in allocation order. Each page's header is checked on the
// way in.
func Attach(pool *bufferpool.Pool, pages []policy.PageID) (*File, error) {
	if pool == nil {
		panic("heapfile: nil pool")
	}
	f := &File{pool: pool, pages: append([]policy.PageID(nil), pages...)}
	for _, id := range f.pages {
		pg, err := pool.FetchCtx(context.Background(), id)
		if err != nil {
			return nil, fmt.Errorf("heapfile attach: %w", err)
		}
		data := pg.Data()
		numSlots, freeEnd := pageHeader(data)
		if int(freeEnd) > storage.PageSize || headerSize+int(numSlots)*slotSize > int(freeEnd) {
			pg.Unpin(false)
			return nil, fmt.Errorf("heapfile attach: page %d has corrupt header (%d slots, freeEnd %d)",
				id, numSlots, freeEnd)
		}
		pg.Unpin(false)
	}
	return f, nil
}

// Pages returns the ids of the file's data pages, in allocation order.
// Experiments use this to classify references by page class.
func (f *File) Pages() []policy.PageID {
	out := make([]policy.PageID, len(f.pages))
	copy(out, f.pages)
	return out
}

// pageHeader reads the header fields from page data.
func pageHeader(data []byte) (numSlots, freeEnd uint16) {
	return binary.LittleEndian.Uint16(data[0:2]), binary.LittleEndian.Uint16(data[2:4])
}

func setPageHeader(data []byte, numSlots, freeEnd uint16) {
	binary.LittleEndian.PutUint16(data[0:2], numSlots)
	binary.LittleEndian.PutUint16(data[2:4], freeEnd)
}

func slotAt(data []byte, i uint16) (recOffset, recLen uint16) {
	base := headerSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(data[base : base+2]),
		binary.LittleEndian.Uint16(data[base+2 : base+4])
}

func setSlot(data []byte, i uint16, recOffset, recLen uint16) {
	base := headerSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(data[base:base+2], recOffset)
	binary.LittleEndian.PutUint16(data[base+2:base+4], recLen)
}

// initPage prepares a fresh page's header.
func initPage(data []byte) {
	setPageHeader(data, 0, storage.PageSize)
}

// fits reports whether a need-byte record and its slot entry fit in a page
// of numSlots slots whose record data begins at freeEnd.
func fits(numSlots, freeEnd, need int) bool {
	return freeEnd-(headerSize+numSlots*slotSize) >= need+slotSize
}

// recordsPerPage is how many size-byte records insertIntoPage places in a
// fresh page.
func recordsPerPage(size int) int {
	k := 0
	for fits(k, storage.PageSize-k*size, size) {
		k++
	}
	return k
}

// insertIntoPage appends rec to the page in a new slot; ok is false if
// the record and its slot entry do not fit in the free region.
func insertIntoPage(data []byte, rec []byte) (slot uint16, ok bool) {
	numSlots, freeEnd := pageHeader(data)
	need := len(rec)
	if !fits(int(numSlots), int(freeEnd), need) {
		return 0, false
	}
	newEnd := freeEnd - uint16(need)
	copy(data[newEnd:freeEnd], rec)
	setSlot(data, numSlots, newEnd, uint16(need))
	setPageHeader(data, numSlots+1, newEnd)
	return numSlots, true
}

// checkRecord rejects a record length no page can hold.
func checkRecord(size int) error {
	if size <= 0 {
		return errors.New("heapfile: empty record")
	}
	if size > MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, size)
	}
	return nil
}

// Insert stores rec and returns its RID.
func (f *File) Insert(rec []byte) (RID, error) {
	if err := checkRecord(len(rec)); err != nil {
		return RID{}, err
	}
	// The most recently allocated page first: it is the only one with free
	// space to spare, and this keeps the common case to one page reference.
	if n := len(f.pages); n > 0 {
		id := f.pages[n-1]
		pg, err := f.pool.FetchCtx(context.Background(), id)
		if err != nil {
			return RID{}, fmt.Errorf("heapfile insert: %w", err)
		}
		lk := pg.Latch()
		lk.Lock()
		slot, ok := insertIntoPage(pg.Data(), rec)
		lk.Unlock()
		if ok {
			pg.Unpin(true)
			return RID{Page: id, Slot: slot}, nil
		}
		pg.Unpin(false)
	}
	pg, err := f.pool.NewPageCtx(context.Background())
	if err != nil {
		return RID{}, fmt.Errorf("heapfile insert: %w", err)
	}
	id := pg.ID()
	lk := pg.Latch()
	lk.Lock()
	initPage(pg.Data())
	slot, _ := insertIntoPage(pg.Data(), rec)
	lk.Unlock()
	f.pages = append(f.pages, id)
	pg.Unpin(true)
	return RID{Page: id, Slot: slot}, nil
}

// LoadError is a failure of Load's own, charged to a record: a failed
// allocation to the record that needed the page, a failed write to the
// first record that did not fit in the page (the last record, for the last
// page).
type LoadError struct {
	Record int
	Err    error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("heapfile: loading record %d: %v", e.Record, e.Err)
}

func (e *LoadError) Unwrap() error { return e.Err }

// Load appends records 0..n-1, each size bytes, starting from a new page
// and filling pages as Insert does: into the last page while the record
// fits, else into a new one. It is the bulk load's path, in two passes.
//
// The first runs on the caller's goroutine. It allocates each page
// (Pool.AllocatePage) when its first record needs it and hands every
// record's RID to placed, in record order, so the backend's allocations and
// whatever placed does between them come in the order a per-record load
// makes them. The second builds the pages, calling fill to write record i
// into rec, and writes each once, past the pool's frames
// (Pool.WriteNewPage, behind): a bulk load touches each page once, the
// paper's Example 1.2 sweep, so a frame would keep nothing. It splits the
// pages into contiguous ranges across runtime.GOMAXPROCS(0) goroutines, so
// fill runs on several at once, each with its own rec: zeroed at first,
// then holding what that goroutine's previous fill left.
//
// A failure ends the first pass at its record; the pages before that
// record's page are still written. The pages before the first one that
// failed to write join the file, readable, in allocation order. An error
// from placed is returned as it is; a failed allocation or write is a
// *LoadError. A failed write is reported over a first-pass failure, and of
// several failed writes, the lowest page's. While Load runs the file must
// not be used any other way.
func (f *File) Load(n, size int, fill func(i int, rec []byte), placed func(i int, rid RID) error) error {
	if err := checkRecord(size); err != nil {
		return err
	}
	per := recordsPerPage(size)
	built := (n + per - 1) / per // pages whose records were all placed
	base := len(f.pages)
	pages := slices.Grow(f.pages, built)
	ids := pages[base : base+built]
	var err error
	for i := 0; i < n; i++ {
		p := i / per
		if i%per == 0 {
			id, aerr := f.pool.AllocatePage()
			if aerr != nil {
				err = &LoadError{Record: i, Err: fmt.Errorf("heapfile insert: %w", aerr)}
			}
			ids[p] = id
		}
		if err == nil {
			err = placed(i, RID{Page: ids[p], Slot: uint16(i % per)})
		}
		if err != nil {
			built = p
			break
		}
	}
	written, werr := f.writePages(ids[:built], n, per, size, fill)
	f.pages = pages[:base+written]
	if werr != nil {
		return werr
	}
	return err
}

// writePages is Load's second pass: it builds the pages ids names, page p
// holding records p*per.. of n, and writes each through the pool, on up to
// runtime.GOMAXPROCS(0) goroutines that each take a contiguous range. It
// returns how many pages precede the lowest one whose write failed (all of
// them, when none did) and that page's failure.
func (f *File) writePages(ids []policy.PageID, n, per, size int, fill func(int, []byte)) (int, error) {
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	if workers == 0 {
		return 0, nil
	}
	ctx := storage.WithWriteBehind(context.Background()) // marked once, for every page
	failed := make([]int, workers)                       // the page errs[w] failed, when it is set
	errs := make([]error, workers)
	work := func(w int) {
		buf, rec := make([]byte, storage.PageSize), make([]byte, size)
		for p := w * len(ids) / workers; p < (w+1)*len(ids)/workers; p++ {
			clear(buf)
			initPage(buf)
			end := min(p*per+per, n)
			for i := p * per; i < end; i++ {
				fill(i, rec)
				insertIntoPage(buf, rec)
			}
			if err := f.pool.WriteNewPage(ctx, ids[p], buf); err != nil {
				failed[w] = p
				errs[w] = &LoadError{Record: min(end, n-1), Err: fmt.Errorf("heapfile append: %w", err)}
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return failed[w], err
		}
	}
	return len(ids), nil
}

// GetCtx returns a copy of the record at rid (see AppendCtx).
func (f *File) GetCtx(ctx context.Context, rid RID) ([]byte, error) {
	return f.AppendCtx(ctx, nil, rid)
}

// AppendCtx appends the record at rid to dst and returns the extended
// slice — the one copy a record read makes, taken under the page pin and
// the page's latch held shared, so a caller with a reusable buffer (the server's reply
// frame) reads without allocating. On error dst is returned unchanged. The
// page fetch (including a coalesced wait behind another request's
// in-flight read) observes ctx's deadline.
func (f *File) AppendCtx(ctx context.Context, dst []byte, rid RID) ([]byte, error) {
	pg, err := f.pool.FetchCtx(ctx, rid.Page)
	if err != nil {
		return dst, fmt.Errorf("heapfile get %v: %w", rid, err)
	}
	defer pg.Unpin(false)
	lk := pg.Latch()
	lk.RLock()
	defer lk.RUnlock()
	data := pg.Data()
	off, length, err := liveSlot(data, rid)
	if err != nil {
		return dst, err
	}
	return append(dst, data[off:off+length]...), nil
}

// liveSlot returns the extent of the live record at rid within its page.
func liveSlot(data []byte, rid RID) (off, length uint16, err error) {
	numSlots, _ := pageHeader(data)
	if rid.Slot >= numSlots {
		return 0, 0, fmt.Errorf("%w: %v", ErrInvalidRID, rid)
	}
	off, length = slotAt(data, rid.Slot)
	if slotDead(off) {
		return 0, 0, fmt.Errorf("%w: %v (dead slot)", ErrInvalidRID, rid)
	}
	return off, length, nil
}

// FillCtx sets bytes from.. of the record at rid to b, in place: the update
// of a read-modify-write transaction (db's UpdateCustomerCtx), which copies
// nothing. Like that transaction it references the record's page twice —
// once to read the record, checking that rid is live, and once to write it
// — so the replacer sees §2.1.1's correlated pair. The write happens under
// the page's latch held exclusively, so a concurrent reader or write-back
// of the page sees either the old or the new bytes, never a torn record.
//
// With flush, the page is written back through the pool before FillCtx
// returns, without its pin ever being released in between: the durable
// acknowledgement path. A nil return then means the updated image has
// reached the backend's write-ahead log; the page cannot be evicted between
// the write and the flush, so the flush never misses it. The write-back
// takes the latch shared itself (Page.FlushCtx). Every fetch observes ctx
// (see AppendCtx).
func (f *File) FillCtx(ctx context.Context, rid RID, from int, b byte, flush bool) error {
	pg, err := f.pool.FetchCtx(ctx, rid.Page)
	if err != nil {
		return fmt.Errorf("heapfile fill %v: %w", rid, err)
	}
	lk := pg.Latch()
	lk.RLock()
	_, _, err = liveSlot(pg.Data(), rid)
	lk.RUnlock()
	pg.Unpin(false)
	if err != nil {
		return err
	}

	pg, err = f.pool.FetchCtx(ctx, rid.Page)
	if err != nil {
		return fmt.Errorf("heapfile fill %v: %w", rid, err)
	}
	lk = pg.Latch()
	lk.Lock()
	data := pg.Data()
	off, length, err := liveSlot(data, rid)
	if err != nil {
		lk.Unlock()
		pg.Unpin(false)
		return err
	}
	for i := int(off) + from; i < int(off+length); i++ {
		data[i] = b
	}
	lk.Unlock()
	if !flush {
		pg.Unpin(true)
		return nil
	}
	err = pg.FlushCtx(ctx)
	// A successful flush left the page clean; a failed one re-marked it
	// dirty itself.
	pg.Unpin(false)
	return err
}

// ScanCtx visits every live record in page order (a sequential scan, the
// access pattern of Example 1.2) until fn returns false. The record slice
// passed to fn is only valid during the call. Every page fetch observes
// ctx's deadline, and the sweep also checks the context between pages so a
// cancelled scan stops promptly even when every page hits. fn runs under
// the page's latch held shared: keep it short, and do not call back into
// the file from inside it.
func (f *File) ScanCtx(ctx context.Context, fn func(rid RID, rec []byte) bool) error {
	for _, id := range f.pages {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("heapfile scan: %w", err)
		}
		pg, err := f.pool.FetchCtx(ctx, id)
		if err != nil {
			return fmt.Errorf("heapfile scan: %w", err)
		}
		lk := pg.Latch()
		lk.RLock()
		data := pg.Data()
		numSlots, _ := pageHeader(data)
		for s := uint16(0); s < numSlots; s++ {
			off, length := slotAt(data, s)
			if slotDead(off) {
				continue
			}
			if !fn(RID{Page: id, Slot: s}, data[off:off+length]) {
				lk.RUnlock()
				pg.Unpin(false)
				return nil
			}
		}
		lk.RUnlock()
		pg.Unpin(false)
	}
	return nil
}
