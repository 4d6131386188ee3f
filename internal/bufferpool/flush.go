package bufferpool

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

// This file is the write-back side of the pool: the flush paths and the
// quarantine of pages whose write-back failed. A quarantined page is
// skipped within the sweep that failed it, so one poisoned page cannot
// wedge an unrelated fetch, and has one retry path, the ordinary one: it
// stays a victim candidate, so the next eviction sweep that selects it
// writes it back, and every flush sweep writes it too. Quarantine is a bit
// on the page's frame, flipped by CompareAndSwap, beside one pool-wide
// count, so a successful write-back clears it without a lock.

// flushFrame writes the pinned frame back if dirty, or always if force. The
// dirty bit is cleared before the write so a concurrent modification is not
// lost: it re-marks the page dirty and a later flush or eviction persists
// it. flushMu serialises concurrent flushers of the same frame
// (Page.FlushCtx, a flush sweep, the scrubber's rewrite), so a nil return
// means the frame's data reached the backend at some point during the
// call — never that another flusher's still-undecided write looked clean
// in passing. The write is durable when it returns unless ctx carries the
// write-behind mark (the sweep's), which defers that to the barrier. force
// is decided under flushMu, so a forced flush (Page.FlushCtx, the pool's
// one durable write-back) writes even when a sweep has just written the
// same image behind. The backend copies the frame under its latch held
// shared, so the image is never one a writer is half-way through.
// A failed write leaves the page dirty and quarantined, as a failed
// eviction write-back does, for the next sweep or flush to retry; a write
// the caller's own context ended leaves it dirty only.
func (p *Pool) flushFrame(ctx context.Context, id policy.PageID, f *frame, force bool) error {
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	if !force && !f.dirty.Load() {
		// Clean under flushMu means the last write genuinely completed (or
		// the page was never written since load): nothing to retry, so clear
		// any stale quarantine bit.
		p.quarantineRemove(f)
		return nil
	}
	f.dirty.Store(false)
	f.latch.RLock()
	err := p.diskIO(ctx, storage.OpWrite, id, f.data)
	f.latch.RUnlock()
	if err != nil {
		f.dirty.Store(true)
		p.writeFailed(f, err)
		return fmt.Errorf("flushing page %d: %w", id, err)
	}
	p.writeBacks.Add(1)
	p.quarantineRemove(f)
	return nil
}

// flushResident is the maintenance paths' flush by id (a flush sweep, the
// scrubber's rewrite): pin the page if it is resident — waiting out an
// in-flight load or write-back, interruptibly — write it back if dirty,
// unpin. It touches no hit/miss accounting and records no reference.
// force flushes a clean frame too. resident is false when the table holds
// nothing for id, its load failed, or ctx expired while waiting.
func (p *Pool) flushResident(ctx context.Context, id policy.PageID, force bool) (resident bool, err error) {
	f, _, _ := p.pinEntry(ctx, id, obs.TraceContext{}, nil)
	if f == nil {
		return false, nil
	}
	defer p.releasePin(id, f, false)
	return true, p.flushFrame(ctx, id, f, force)
}

// FlushAll writes every dirty resident page back to storage behind
// (storage.WithWriteBehind: no per-page log fsync) and then asks the backend
// for its durability barrier (storage.Backend.Flush — a checkpoint, on the
// durable file backend, which syncs the log once for the whole sweep). A
// failed write-back does not stop the sweep: every resident page is
// visited, every flushable one flushed, and the failures are returned
// joined in page-id order (errors.Is unwraps them individually). Failed
// pages stay dirty, resident and quarantined, so a later sweep, eviction or
// flush after the fault clears loses nothing. The barrier runs only when
// the sweep completed cleanly: a checkpoint must not declare durability
// over pages whose write-back failed.
func (p *Pool) FlushAll() error {
	return p.FlushAllCtx(context.Background())
}

// FlushAllCtx is FlushAll charged against ctx: write-backs observe the
// deadline, and an expired context ends the sweep
// early (the cancellation is reported in the joined error; unreached pages
// simply stay dirty and resident).
func (p *Pool) FlushAllCtx(ctx context.Context) error {
	if p.closed.Load() {
		return ErrClosed
	}
	return p.flushAll(ctx)
}

// flushAll is the sweep behind FlushAll and Close. It takes the table's
// resident ids, sorts them (a deterministic order, and sequential slot
// offsets on the file backend), and writes them back in that order under a
// write-behind ctx. Failures are joined in page order; a cancellation ends
// the sweep and is reported once, after them. The barrier runs only after a
// clean sweep. Sweeps need no lock of their own: flushMu serialises two
// flushers of one frame, and the barrier (a checkpoint, on the file
// backend) covers every write that returned before it began, whichever
// sweep issued it.
func (p *Pool) flushAll(ctx context.Context) error {
	p.tableMu.RLock()
	ids := make([]policy.PageID, 0, len(p.table))
	for id := range p.table {
		ids = append(ids, id)
	}
	p.tableMu.RUnlock()
	slices.Sort(ids)
	wctx := storage.WithWriteBehind(ctx)
	var errs []error
	cancelled := false
	for _, id := range ids {
		if cancelled = ctx.Err() != nil; cancelled {
			break
		}
		// Not resident any more (evicted meanwhile) means nothing to
		// flush.
		_, err := p.flushResident(wctx, id, false)
		if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// The sweep's cancellation, not this page's fault: it is
			// reported once, below. The page stays dirty.
			cancelled = true
			break
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	if cancelled {
		errs = append(errs, fmt.Errorf("bufferpool: flush sweep cancelled: %w", ctx.Err()))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := p.backend.Flush(ctx); err != nil {
		return fmt.Errorf("bufferpool: storage flush barrier: %w", err)
	}
	return nil
}

func (p *Pool) quarantineAdd(f *frame) {
	if f.quarantined.CompareAndSwap(false, true) {
		p.quarantined.Add(1)
	}
}

func (p *Pool) quarantineRemove(f *frame) {
	if f.quarantined.CompareAndSwap(true, false) {
		p.quarantined.Add(-1)
	}
}

// Quarantined returns the number of resident pages whose most recent dirty
// write-back failed. Such pages keep their data in memory and are retried
// on later eviction sweeps and flushes; a successful write-back or flush
// removes them from quarantine.
func (p *Pool) Quarantined() int { return int(p.quarantined.Load()) }
