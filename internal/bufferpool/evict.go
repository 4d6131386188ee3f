package bufferpool

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

// This file is how a frame changes hands: the eviction sweep that secures
// one for a miss or a new page, and the restore of victims the sweep set
// aside.

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
// its write-backs included — is charged against ctx: a cancelled caller
// stops evicting.
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
// maxWriteBackFailures failures. The page keeps its HIST and is restored
// as a candidate, so the next sweep that selects it retries the write-back,
// as does every flush.
func (p *Pool) obtainFrame(ctx context.Context) (*frame, error) {
	if f, err := p.freePop(); f != nil || err != nil {
		return f, err
	}
	var (
		werrs       []error
		deferredBuf [8]deferredVictim
		examined    int64
	)
	// deferred holds the failed write-backs first (one per werrs entry, kept
	// to sweep end so a poisoned page is tried once per sweep), then the
	// victims skipped as pinned since the last write-back began. It starts
	// in a fixed array, so a sweep that sets few pages aside allocates
	// nothing. All of them re-enter the replacer whichever way the sweep
	// exits. The sweep length is recorded however the sweep ends (the fast
	// free-list path above never reaches here, so every recorded sweep
	// actually consulted the replacer).
	deferred := deferredBuf[:0]
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
			// A failed load may have freed a frame since the first check.
			if f, err := p.freePop(); f != nil || err != nil {
				return f, err
			}
			if len(werrs) > 0 {
				return nil, fmt.Errorf("bufferpool: no evictable victim could be written back: %w",
					errors.Join(werrs...))
			}
			return nil, ErrNoFreeFrame
		}
		p.tableMu.Lock()
		f := p.lookup(victim)
		if f == nil || f.state.Load() != frameResident || !f.tryClaim() {
			// The page vanished, or it is pinned: set it aside and pick the
			// next victim. The latched paths cannot pin while we hold the
			// exclusive latch, and tryClaim atomically excludes the
			// lock-free probes: once it succeeds no new pin can appear.
			p.tableMu.Unlock()
			if f != nil {
				deferred = append(deferred, deferredVictim{id: victim, f: f})
			}
			continue
		}
		if !f.dirty.Load() {
			p.slot(victim).Store(nil)
			// Leave frameResident behind: the claimed frame is about to be
			// repurposed, and a stale resident state could let a probe that
			// loaded it here pin it between its next install and state store.
			f.state.Store(frameFree)
			p.tableMu.Unlock()
			p.evictions.Add(1)
			p.traceEviction(ctx, victim)
			return f, nil
		}
		// Dirty victim: transition to frameWriting so the entry stays
		// visible (a concurrent fetch of this page must wait, not read the
		// stale disk copy), then write back outside the latch.
		f.state.Store(frameWriting)
		f.done.Store(nil)
		p.tableMu.Unlock()
		// Pinned pages are held out only while the search runs, never
		// across I/O: their pins are long gone by the time a write returns.
		for _, dv := range deferred[len(werrs):] {
			p.restoreVictim(dv.id, dv.f)
		}
		deferred = deferred[:len(werrs)]
		werr := p.diskIO(ctx, storage.OpWrite, victim, f.data)
		p.tableMu.Lock()
		if werr != nil {
			// Restore residency — the data is still only in memory — then
			// quarantine the page (writeFailed; not when the caller's own
			// context ended the write) and try the next victim instead of
			// failing the caller's unrelated fetch. The unclaim must happen
			// under the exclusive latch, before any latched path can pin
			// the page again, so its epoch bump cannot clobber a pin; the
			// quarantine too, so no flush can write the page back before
			// it is quarantined and leave the bit set on a clean page.
			f.unclaim()
			f.state.Store(frameResident)
			p.writeFailed(f, werr)
			f.finish()
			p.tableMu.Unlock()
			werrs = append(werrs, fmt.Errorf("writing back victim %d: %w", victim, werr))
			deferred = append(deferred, deferredVictim{id: victim, f: f})
			if len(werrs) >= maxWriteBackFailures {
				return nil, fmt.Errorf("bufferpool: giving up after %d failed write-backs: %w",
					len(werrs), errors.Join(werrs...))
			}
			continue
		}
		p.slot(victim).Store(nil)
		f.finish()
		p.tableMu.Unlock()
		f.dirty.Store(false)
		p.quarantineRemove(f)
		p.writeBacks.Add(1)
		p.evictions.Add(1)
		p.traceEviction(ctx, victim)
		return f, nil
	}
}

// traceEviction leaves a zero-duration evict event (annot = victim page)
// under the span on ctx — the pool_miss span of the sampled fetch the
// sweep ran for — so /spans?trace=… answers which request evicted the
// page. No-op unless a node adopted the trace on ctx.
func (p *Pool) traceEviction(ctx context.Context, victim policy.PageID) {
	if tc := obs.TraceFrom(ctx); tc.Sampled {
		tc.Emit(obs.SpanEvict, time.Now(), 0, int64(victim))
	}
}

// restoreVictim re-registers a page in the replacer after an eviction
// attempt was abandoned (the page was pinned, or its write-back failed):
// Evict had already removed it, and without re-registration the page could
// never be chosen again. Restore reinstates residency and candidacy without
// fabricating a reference — recording a phantom access here would reset the
// page's Backward K-distance and could keep an otherwise-cold page resident.
// The table's shared latch holds the mapping still across the check and the
// call, so the replacer never gets back a page the pool no longer holds.
func (p *Pool) restoreVictim(id policy.PageID, f *frame) {
	p.tableMu.RLock()
	defer p.tableMu.RUnlock()
	if p.lookup(id) != f {
		return // the page moved on (its load failed, or it was reloaded elsewhere)
	}
	p.replacer.Restore(id)
}
