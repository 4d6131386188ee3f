package bufferpool

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

// This file is the fetch path: the latch-free resident probe, the latched
// fetch loop, the miss protocol with its coalescing, NewPageCtx, and the
// frameless AllocatePage and WriteNewPage. pinEntry is the one reader of
// the page table's residency state machine: client fetches and the
// maintenance paths (flushResident) both pin through it.

// FetchCtx pins page id, reading it from disk on a miss, and returns the
// handle. Concurrent fetches of a non-resident page issue one disk read:
// the first becomes the loader, the rest coalesce onto its in-flight
// frame. ctx carries the caller's deadline, and every blocking point
// honours it: a coalesced waiter whose context expires
// abandons the in-flight load and returns promptly (the loader completes
// and installs the page regardless — see abandonPin for the frame
// accounting), a wait on a victim's write-back is interruptible, and the
// miss path's disk read is charged against ctx.
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
	if pg, ok := p.fetchFast(id); ok {
		// A lock-free hit deliberately records no span even when sampled:
		// the probe path stays untouched by tracing, and a sub-microsecond
		// hit adds nothing to a waterfall.
		return pg, nil
	}
	// One ctx.Value probe per slow-path fetch. A fetch under an adopted
	// trace gets a pool_fetch span; everything beneath (miss, coalesce,
	// disk, WAL) parents to it via the re-wrapped context.
	if span := obs.TraceFrom(ctx).Start(obs.SpanPoolFetch); span.ID() != 0 {
		tc := span.Context()
		pg, err := p.fetchSlow(obs.ContextWithTrace(ctx, tc), id, tc)
		span.Finish(int64(id))
		return pg, err
	}
	return p.fetchSlow(ctx, id, obs.TraceContext{})
}

// fetchFast is the latch-free resident-hit probe (DESIGN.md §14). It loads
// id's slot in the page-state array, validates page identity and residency
// against the frame itself, and pins with one CAS on the packed
// pin/claim/epoch word. The CAS succeeds only if no claim or install
// touched the frame since the word was read, so a success is a valid pin
// on a resident frame with the data published (the loader's
// state.Store(frameResident) happens-before our state load). A CAS lost to a
// pin or unpin is retried; any other doubt returns false to the latched path.
func (p *Pool) fetchFast(id policy.PageID) (Page, bool) {
	f := p.lookup(id)
	if f == nil {
		return Page{}, false
	}
	w := f.pv.Load()
	if w&frameClaimBit != 0 || f.page.Load() != int64(id) || f.state.Load() != frameResident {
		return Page{}, false
	}
	for epoch := w &^ framePinMask; !f.pv.CompareAndSwap(w, w+1); {
		if w = f.pv.Load(); w&^framePinMask != epoch {
			return Page{}, false
		}
	}
	p.replacer.RecordHit(id)
	p.hits.Add(1)
	return Page{pool: p, id: id, f: f, valid: true}, true
}

// fetchSlow is the latched fetch loop: pin whatever the table holds for id,
// or run the miss protocol when it holds nothing. The accounting lives here
// — pinEntry pins, this function says what the pin was: a latched hit, or a
// miss that parked behind another fetch's read. tc is the enclosing
// pool_fetch span's context (zero when the fetch is unsampled).
func (p *Pool) fetchSlow(ctx context.Context, id policy.PageID, tc obs.TraceContext) (Page, error) {
	for {
		f, joined, err := p.pinEntry(ctx, id, tc, p.metrics.CoalesceWait)
		if joined {
			// Coalesced onto an in-flight read: a miss (the page was not
			// resident) whichever way the load or the wait ended; the disk
			// error itself is counted once, by the loader, in ReadErrors.
			p.misses.Add(1)
			p.coalesced.Add(1)
		}
		if err != nil {
			return Page{}, err
		}
		if f != nil {
			p.replacer.RecordHit(id)
			if !joined {
				p.hits.Add(1)
				p.latchedHits.Add(1)
			}
			return Page{pool: p, id: id, f: f, valid: true}, nil
		}
		var missStart time.Time
		if p.metrics.MissLatency != nil {
			missStart = time.Now()
		}
		pg, retry, err := p.fetchMiss(ctx, id, tc)
		if retry {
			continue
		}
		p.metrics.MissLatency.ObserveSince(missStart) // nil-safe
		return pg, err
	}
}

// pinEntry pins the page table's entry for id, whatever state it is in:
//
//	frameWriting   a dirty victim mid write-back: wait for done, then look
//	               up again (the page has left the table, or is resident
//	               again if the write failed)
//	frameLoading   a miss read in flight: pin, join the load, and settle
//	               when done closes — keep the pin if the page loaded,
//	               drop it if the load failed or ctx expired first
//	frameResident  pin
//
// A nil frame with a nil error means the table holds nothing for id.
// joined reports that the call parked behind another fetch's read (also on
// the error returns that follow from it); an error without joined is ctx
// expiring behind a write-back. No hit/miss accounting happens here and no
// reference is recorded: client fetches add theirs in fetchSlow, and the
// maintenance paths (flushResident) add none. tc and wait say where a join's
// parked time is recorded — a pool_coalesce span and the CoalesceWait
// histogram for a client fetch; maintenance callers pass neither, so both
// signals keep meaning "client fetches parked behind a read".
func (p *Pool) pinEntry(ctx context.Context, id policy.PageID, tc obs.TraceContext, wait *obs.Histogram) (*frame, bool, error) {
	for {
		p.tableMu.RLock()
		f := p.lookup(id)
		if f == nil {
			p.tableMu.RUnlock()
			return nil, false, nil
		}
		switch f.state.Load() {
		case frameWriting:
			done := f.waitCh()
			p.tableMu.RUnlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		case frameLoading:
			f.pinAdd(1)
			done := f.waitCh()
			p.tableMu.RUnlock()
			var waitStart time.Time
			if wait != nil {
				waitStart = time.Now()
			}
			coSpan := tc.Start(obs.SpanPoolCoalesce)
			select {
			case <-done:
				coSpan.Finish(int64(id))
				wait.ObserveSince(waitStart)
			case <-ctx.Done():
				coSpan.Finish(int64(id))
				// Abandon the load: the loader finishes it on our behalf, and
				// abandonPin settles the frame whichever way it ends.
				p.abandonPin(id, f)
				return nil, true, ctx.Err()
			}
			if err := f.err; err != nil {
				// err is captured before the pin drops: the last pin out
				// recycles the frame, after which f.err may be rewritten by
				// the frame's next loader.
				if f.pinAdd(-1) == 0 {
					p.freePush(f)
				}
				return nil, true, err
			}
			return f, true, nil
		default: // frameResident — shared latch only
			f.pinAdd(1)
			p.tableMu.RUnlock()
			return f, false, nil
		}
	}
}

// abandonPin releases the pin of a coalesced waiter that gave up on an
// in-flight load, with exact frame accounting either way the load ends.
// If the count reaches zero the load has published (the loader holds a pin
// until then), leaving two cases: the load succeeded and the page stays
// resident (nothing more to do — the loader made it a victim candidate),
// or it failed, the loader unlinked the frame, and the last participant
// out must recycle it, exactly once. The table mapping distinguishes them,
// and the classification must be atomic with eviction's zero-pin claim —
// an eviction sliding between our decrement and the table read would
// repurpose the frame first and turn our recycle into a double free.
// Holding the table latch in shared mode (eviction claims under it
// exclusively) pins the mapping in place while we decide.
func (p *Pool) abandonPin(id policy.PageID, f *frame) {
	p.tableMu.RLock()
	if f.pinAdd(-1) == 0 && p.lookup(id) != f {
		// Failed load: the frame is table-unreachable and we are the last
		// participant, so no recycle can race this free.
		p.freePush(f)
	}
	p.tableMu.RUnlock()
}

// fetchMiss runs the miss protocol: obtain a frame (evicting if needed),
// install it as the in-flight holder for id, then read from disk outside
// every latch and publish. retry is true when another goroutine installed
// the page first and the caller must re-run the fetch.
func (p *Pool) fetchMiss(ctx context.Context, id policy.PageID, tc obs.TraceContext) (pg Page, retry bool, err error) {
	// A sampled miss gets its own span; disk reads and victim write-backs
	// beneath it parent to the miss via the re-wrapped context.
	missSpan := tc.Start(obs.SpanPoolMiss)
	if missSpan.ID() != 0 {
		ctx = obs.ContextWithTrace(ctx, missSpan.Context())
		defer missSpan.Finish(int64(id))
	}
	if kind, bad := p.poisonedKind(id); bad {
		// The page is known unrepairable-corrupt: fail fast with the
		// recorded classification instead of re-reading garbage. Still a
		// miss (the page was not resident) and a read error — but not a
		// fresh detection; that was counted when the page was poisoned.
		p.misses.Add(1)
		p.readErrors.Add(1)
		return Page{}, false, fmt.Errorf("fetching page %d: %w", id, &storage.ErrCorrupt{Page: id, Kind: kind})
	}
	if !p.breaker.ready() {
		// Fail fast while the circuit is open: no frame is claimed, no
		// victim written back, no waiters queued behind a disk that is not
		// answering. Still a miss — the page was not resident —
		// but no storage attempt is made. A sampled fetch leaves a
		// zero-duration breaker_reject event marking the refusal.
		p.misses.Add(1)
		p.readsRejected.Add(1)
		if missSpan.ID() != 0 {
			missSpan.Context().Emit(obs.SpanBreakerReject, time.Now(), 0, int64(id))
		}
		return Page{}, false, fmt.Errorf("fetching page %d: %w", id, ErrDiskUnavailable)
	}
	if p.slot(id) == nil && (id < 0 || int64(id) >= int64(p.backend.NumPages())) {
		// Never allocated (an invalid id, a corrupt pointer): refused before
		// a victim is evicted or the directory grows for it. NumPages, which
		// takes a latch on the file store, is asked only where it would grow.
		p.misses.Add(1)
		p.readErrors.Add(1)
		return Page{}, false, fmt.Errorf("fetching page %d: %w", id, storage.ErrPageNotAllocated)
	}
	f, err := p.obtainFrame(ctx)
	if err != nil {
		return Page{}, false, err
	}
	p.tableMu.Lock()
	s := p.slotGrow(id)
	if s.Load() != nil {
		// Lost the install race; rejoin as a hit or coalesced miss.
		p.tableMu.Unlock()
		p.freePush(f)
		return Page{}, true, nil
	}
	f.install(id, frameLoading)
	s.Store(f)
	p.tableMu.Unlock()

	// The I/O happens outside the latch — through the gate (breaker
	// included), and on detected corruption the read-repair protocol
	// (loadPage), charged against ctx; concurrent fetches of id find the
	// loading frame and wait on done, everyone else proceeds untouched.
	if rerr := p.loadPage(ctx, id, f.data); rerr != nil {
		// Publish the error before the table delete becomes observable:
		// the table latch orders f.err ahead of the deletion for latched
		// readers, and finish publishes it to the parked waiters. A
		// failed load is still a miss — the page was not resident — and
		// counts once in ReadErrors (or ReadsRejected, when the breaker
		// refused the attempt without touching the disk; or nowhere, when
		// the caller's own context ended it).
		err := fmt.Errorf("fetching page %d: %w", id, rerr)
		f.err = err
		p.tableMu.Lock()
		s.Store(nil)
		p.tableMu.Unlock()
		f.finish()
		p.misses.Add(1)
		p.countFailure(storage.OpRead, rerr)
		// Waiters that pinned before the table delete still hold the frame;
		// the last participant out returns it to the free list (after which
		// the frame, f.err included, belongs to its next owner).
		if f.pinAdd(-1) == 0 {
			p.freePush(f)
		}
		return Page{}, false, err
	}
	// Admission makes the page a victim candidate while the caller still
	// holds its pin: a sweep that selects it meanwhile finds the pin count
	// positive and skips it.
	p.replacer.RecordAccess(id)
	f.state.Store(frameResident)
	f.finish()
	p.misses.Add(1)
	return Page{pool: p, id: id, f: f, valid: true}, false, nil
}

// NewPageCtx allocates a fresh disk page, pins it in a frame and returns
// the handle. The eviction sweep that makes room (dirty-victim write-backs
// included) is charged against ctx.
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
		p.freePush(f)
		return Page{}, fmt.Errorf("bufferpool: allocating page: %w", err)
	}
	clear(f.data)
	f.install(id, frameResident)
	p.tableMu.Lock()
	p.slotGrow(id).Store(f) // id is fresh: no prior mapping can exist
	p.tableMu.Unlock()
	p.replacer.RecordAccess(id)
	p.misses.Add(1) // a new page is by definition not buffer-resident
	return Page{pool: p, id: id, f: f, valid: true}, nil
}

// AllocatePage reserves a fresh disk page without a frame, for a caller
// that writes its first image through WriteNewPage before anything reads it
// (the bulk load's heap pages). The scrubber's range covers the page.
func (p *Pool) AllocatePage() (policy.PageID, error) {
	if p.closed.Load() {
		return 0, ErrClosed
	}
	id, err := p.backend.Allocate()
	if err != nil {
		return 0, fmt.Errorf("bufferpool: allocating page: %w", err)
	}
	return id, nil
}

// WriteNewPage writes the first image of a page AllocatePage returned, which
// no frame has held, once through the I/O gate, behind as a
// flush sweep's writes are: on a durable backend it is durable at the
// barrier of the next FlushAll to begin after it returns. The file backend
// writes such an image to its slot alone, with no log record, when the page
// was allocated since its last checkpoint (file.Store.Write). A ctx that
// already carries the storage.WithWriteBehind mark is used as it is, so a
// bulk load that marks its context once allocates nothing per page here. A
// failed write counts in WriteErrors (or WritesRejected) but quarantines
// nothing: the caller still holds the image.
func (p *Pool) WriteNewPage(ctx context.Context, id policy.PageID, data []byte) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if !storage.WriteBehind(ctx) {
		ctx = storage.WithWriteBehind(ctx)
	}
	if err := p.diskIO(ctx, storage.OpWrite, id, data); err != nil {
		p.countFailure(storage.OpWrite, err)
		return fmt.Errorf("bufferpool: writing new page %d: %w", id, err)
	}
	return nil
}
