package bufferpool

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
)

// Frame lifecycle states. Transitions into frameWriting and table
// insert/delete happen only under the table's exclusive latch;
// frameLoading→frameResident is published lock-free via the frame's done
// channel. frameLoading and frameWriting are the two transient states: a
// frame in either is what pinEntry (fetch.go) waits on for every fetch and
// maintenance path. The wait channel is made by the first waiter (waitCh),
// so a transition nobody waits on allocates nothing.
const (
	frameFree     int32 = iota // on the free list, unreachable from the table
	frameLoading               // in the table, disk read in flight
	frameResident              // in the table, data valid
	frameWriting               // in the table, dirty-victim write-back in flight
)

// Layout of frame.pv, the packed pin/claim/epoch word that makes the
// resident-hit probe latch-free (DESIGN.md §14):
//
//	bits 0..31   pin count
//	bit  32      claim bit: the frame is being repurposed (evicted);
//	             probes must not pin it
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
// path mutates them with no latch at all (probe) or under the table's
// shared latch (slow path). The pin count in pv is the only authority on
// whether the page can be evicted: pins and unpins tell the replacer
// nothing, and an eviction sweep settles the question with tryClaim.
type frame struct {
	data []byte
	// page is the id the frame currently holds; atomic so the lock-free
	// probe can validate it. Only meaningful while the frame is reachable
	// (a freed frame retains its last id).
	page  atomic.Int64
	pv    atomic.Uint64
	dirty atomic.Bool
	state atomic.Int32
	// done is the channel that closes when the frame leaves its transient
	// state: by the loader once the miss read finishes (err says how), by
	// the evictor once a dirty victim's write-back finishes (the page has
	// then left the table, or is resident again if the write failed). A load
	// and a write-back are never in flight on one frame together, so one
	// channel serves both. It is set to nil under the table's exclusive
	// latch as the frame enters the state; the first waiter, holding the
	// latch, installs a channel (waitCh); finish swaps in closedDone and
	// closes whatever it displaced. Most transitions have no waiter, and
	// then no channel is ever made.
	done atomic.Pointer[chan struct{}]
	err  error
	// flushMu serialises flushFrame per frame. A flush clears the dirty bit
	// before its disk write (restoring it on failure); without the mutex a
	// concurrent flusher could observe that transient clean state and
	// report "already durable" for data whose only write is still in flight
	// — and may yet fail. It is held across the write, but only flushers
	// take it, so pin traffic and eviction (which excludes flushers via the
	// pin count) never block on it.
	flushMu sync.Mutex
	// latch is the one lock on the frame's bytes while the page is resident
	// (Page.Latch): a pin holder that reads them holds it shared, one that
	// writes them exclusively, and flushFrame holds it shared across its
	// backend write, so every image the pool writes back is one a writer
	// left whole. The order is flushMu, then latch. An eviction's
	// write-back and a load take no latch: the frame is unpinned, or not
	// yet reachable, so no one else can touch its bytes.
	latch sync.RWMutex
	// quarantined is set while the page's most recent write-back failed
	// (flush.go). Such a page is resident and dirty until a write-back
	// succeeds, which clears the bit before the frame leaves the table.
	quarantined atomic.Bool
}

// closedDone is the done channel of a frame whose transient state has
// finished: already closed, so a waiter that loads it after finish returns
// at once.
var closedDone = func() *chan struct{} {
	c := make(chan struct{})
	close(c)
	return &c
}()

// waitCh returns the channel that closes when the frame leaves its current
// transient state, making it if the caller is the first waiter. The caller
// holds the table's latch (either mode) and found the frame transient in
// the table, so the frame cannot finish and re-enter a transient state — a
// new done epoch — before the latch is released: the channel returned
// belongs to the state the caller saw.
func (f *frame) waitCh() <-chan struct{} {
	if c := f.done.Load(); c != nil {
		return *c
	}
	c := make(chan struct{})
	if f.done.CompareAndSwap(nil, &c) {
		return c
	}
	// Another waiter installed one, or finish swapped in closedDone.
	return *f.done.Load()
}

// finish ends the frame's transient state for every waiter: later ones
// load closedDone, earlier ones are woken by closing the channel the first
// of them made. Whatever finish publishes (state, err) before the call is
// visible to a woken waiter.
func (f *frame) finish() {
	if c := f.done.Swap(closedDone); c != nil {
		close(*c)
	}
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
// unpinned and unclaimed. Callers hold the table's exclusive latch, so the
// only contenders are lock-free probes; a successful claim bumps the epoch
// (via the claim bit) and guarantees no probe can pin the frame until
// install publishes a new epoch.
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

// install readies a frame the caller owns exclusively (claimed by eviction,
// or taken off the free list, where probes cannot pin it because its state
// is never frameResident) to hold page id, clean, in state: a fresh epoch
// with pin count 1, the caller's pin. Clearing the claim bit with a new
// epoch is what re-opens the frame to probes once it is frameResident.
func (f *frame) install(id policy.PageID, state int32) {
	f.page.Store(int64(id))
	w := f.pv.Load()
	f.pv.Store((w &^ (frameClaimBit | framePinMask)) + frameEpochInc + 1)
	f.dirty.Store(false)
	f.err = nil
	f.done.Store(nil)
	f.state.Store(state)
}

// pageChunk is one 4 KB chunk of the page-state array: chunk c holds the
// slots of pages c·pageChunkLen on, each its page's frame or nil.
type pageChunk [pageChunkLen]atomic.Pointer[frame]

const pageChunkLen = 512

// slot returns id's slot, or nil while no page of its chunk has been
// installed (negative ids included). It takes no latch: the directory is
// published whole, and a chunk, once made, never moves.
func (p *Pool) slot(id policy.PageID) *atomic.Pointer[frame] {
	dir := *p.dir.Load()
	if c := uint64(id) / pageChunkLen; c < uint64(len(dir)) && dir[c] != nil {
		return &dir[c][uint64(id)%pageChunkLen]
	}
	return nil
}

// lookup returns the frame in id's slot, or nil. Under the table's latch
// that is the page table's answer; without it, a probe validates the frame
// against the page itself (fetchFast).
func (p *Pool) lookup(id policy.PageID) *frame {
	if s := p.slot(id); s != nil {
		return s.Load()
	}
	return nil
}

// slotGrow returns id's slot, making its chunk if need be, in a copy of the
// directory published whole. The caller holds the table's exclusive latch
// and id is allocated, so the directory grows only as far as the backend.
func (p *Pool) slotGrow(id policy.PageID) *atomic.Pointer[frame] {
	if s := p.slot(id); s != nil {
		return s
	}
	old, c := *p.dir.Load(), int(uint64(id)/pageChunkLen)
	dir := make([]*pageChunk, max(len(old), c+1))
	copy(dir, old)
	dir[c] = new(pageChunk)
	p.dir.Store(&dir)
	return &dir[c][uint64(id)%pageChunkLen]
}

// tabled reports whether f is in its page's slot: loading, resident or mid
// write-back. The caller holds the table's latch.
func (p *Pool) tabled(f *frame) bool { return p.lookup(policy.PageID(f.page.Load())) == f }

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
// that share the page hold its latch while they touch them, and callers
// that modify the data must pass dirty=true to Unpin.
func (pg *Page) Data() []byte {
	if !pg.valid {
		panic("bufferpool: use of page handle after Unpin")
	}
	return pg.f.data
}

// Latch returns the frame's content latch, the one lock on the bytes Data
// returns: hold it shared to read them and exclusively to write them, and
// release it before Unpin. Never hold it across FlushCtx, which takes it
// shared itself: a second shared hold deadlocks once a writer waits.
func (pg *Page) Latch() *sync.RWMutex {
	if !pg.valid {
		panic("bufferpool: use of page handle after Unpin")
	}
	return &pg.f.latch
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
// modifications as dirty, and leaves the handle pinned. It is the pool's
// one durable write-back: it writes even a clean frame, and on a durable
// backend a nil return means the image, modifications included, has
// reached the synced write-ahead log. Because the pin is held across the
// write the page cannot be evicted underneath it. The caller must not hold
// the page's latch.
func (pg *Page) FlushCtx(ctx context.Context) error {
	if !pg.valid {
		panic("bufferpool: use of page handle after Unpin")
	}
	return pg.pool.flushFrame(ctx, pg.id, pg.f, true)
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

// freePop takes a frame off the free list: nil when it is empty, ErrClosed
// on a closed pool, so a miss that passed Close's fence installs nothing.
func (p *Pool) freePop() (*frame, error) {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f, nil
	}
	return nil, nil
}

func (p *Pool) freePush(f *frame) {
	f.state.Store(frameFree)
	p.freeMu.Lock()
	p.free = append(p.free, f)
	p.freeMu.Unlock()
}
