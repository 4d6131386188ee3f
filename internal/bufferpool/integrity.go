package bufferpool

import (
	"context"
	"time"

	"repro/internal/policy"
	"repro/internal/storage"
)

// This file is the pool's data-integrity layer: read-repair on detected
// corruption, the poison set of unrepairable pages, and the background
// scrubber that verifies pages against the backend before a client read
// trips over silent damage. Detection itself lives below the pool — the
// file store's per-slot trailers and the storagetest.Wrap injector both
// surface storage.ErrCorrupt — and the pool decides each detection's
// fate: heal it from a redundant copy, or poison the page id so further
// fetches fail fast.

// maxRepairAttempts bounds how many repair+re-read rounds one detection
// gets before the page is declared unrepairable.
const maxRepairAttempts = 2

// loadPage reads page id into buf through the I/O gate, running the
// read-repair protocol on detected corruption: ask the backend stack's
// repairer to rewrite the page from its redundant copy (the WAL tail, on
// the file store), then re-read and re-verify. Only a verified image is
// admitted. A page that cannot be repaired is poisoned and the corruption
// error returned — never blindly reread. A repair the caller's own context
// ended resolves nothing: the detection is the next read's.
func (p *Pool) loadPage(ctx context.Context, id policy.PageID, buf []byte) error {
	err := p.diskIO(ctx, storage.OpRead, id, buf)
	if err == nil || !storage.IsCorrupt(err) {
		return err
	}
	kind := corruptKindOf(err)
	for attempt := 0; p.repairer != nil && attempt < maxRepairAttempts; attempt++ {
		if rerr := p.repairer.RepairPage(ctx, id); rerr != nil {
			if endedByCaller(ctx, rerr) {
				return callerEnded{rerr}
			}
			break // no redundant copy (or repair itself failed): unrepairable
		}
		rerr := p.diskIO(ctx, storage.OpRead, id, buf)
		if rerr == nil || !storage.IsCorrupt(rerr) {
			// Healed — or the slot verifies but the re-read failed for
			// another reason (breaker, a disk error), which is not a
			// corruption outcome: the detection still resolves as repaired,
			// since the repairer verified the rewritten slot.
			p.resolveCorrupt(id, kind, true)
			return rerr
		}
		err = rerr
	}
	p.resolveCorrupt(id, kind, false)
	return err
}

// resolveCorrupt settles one detection, exactly once: repaired in place,
// or — no redundant copy anywhere — the page id poisoned so that further
// fetches fail fast. It counts the detection with its fate, keeping
// CorruptDetected == CorruptRepaired + CorruptQuarantined exact, and tells
// the corruption hook the outcome.
func (p *Pool) resolveCorrupt(id policy.PageID, kind storage.CorruptKind, repaired bool) {
	p.corruptDetected.Add(1)
	if repaired {
		p.corruptRepaired.Add(1)
	} else {
		p.corruptQuarantined.Add(1)
		p.poisonMu.Lock()
		p.poisoned[id] = kind
		p.npoisoned.Store(int64(len(p.poisoned)))
		p.poisonMu.Unlock()
	}
	if p.corruptionHook != nil {
		p.corruptionHook(id, kind, repaired)
	}
}

func corruptKindOf(err error) storage.CorruptKind {
	if ce, ok := storage.AsCorrupt(err); ok {
		return ce.Kind
	}
	return storage.CorruptChecksum
}

func (p *Pool) poisonedKind(id policy.PageID) (storage.CorruptKind, bool) {
	if p.npoisoned.Load() == 0 {
		return 0, false
	}
	p.poisonMu.Lock()
	kind, ok := p.poisoned[id]
	p.poisonMu.Unlock()
	return kind, ok
}

// PoisonedPages returns the ids currently quarantined as unrepairable-
// corrupt, in no particular order.
func (p *Pool) PoisonedPages() []policy.PageID {
	p.poisonMu.Lock()
	defer p.poisonMu.Unlock()
	ids := make([]policy.PageID, 0, len(p.poisoned))
	for id := range p.poisoned {
		ids = append(ids, id)
	}
	return ids
}

// ScrubSweep examines up to limit pages in cursor order, verifying each
// against the backend and running read-repair on any corruption found.
// The range is the backend's pages: ids are dense and never freed, so it is
// [0, NumPages). It returns how many pages it examined (not how many
// verified — skips for poisoned, dirty-resident or unavailable pages
// count). The background scrubber calls it on its interval; tests and
// operators may call it directly.
func (p *Pool) ScrubSweep(ctx context.Context, limit int) int {
	if p.closed.Load() {
		return 0
	}
	n := int64(p.backend.NumPages())
	if n == 0 {
		return 0
	}
	buf := make([]byte, storage.PageSize)
	examined := 0
	for i := 0; i < limit; i++ {
		if ctx.Err() != nil {
			break
		}
		id := policy.PageID((p.scrubCursor.Add(1) - 1) % n)
		p.scrubOne(ctx, id, buf)
		examined++
	}
	return examined
}

// scrubOne verifies one page's backend copy. Skips: poisoned pages (their
// fate is already decided), and pages whose resident frame is dirty or in
// flux (the disk copy is legitimately stale — the write path will lay
// down a fresh verified image). A clean resident frame does not skip: the
// point is to catch rot under data the pool still trusts.
func (p *Pool) scrubOne(ctx context.Context, id policy.PageID, buf []byte) {
	if _, bad := p.poisonedKind(id); bad {
		return
	}
	if f := p.lookup(id); f != nil {
		if f.state.Load() != frameResident || f.dirty.Load() {
			return
		}
	}
	err := p.diskIO(ctx, storage.OpRead, id, buf)
	if err == nil {
		p.scrubPages.Add(1)
		return
	}
	if !storage.IsCorrupt(err) {
		return // unallocated, breaker-refused, a disk error: not scrub business
	}
	kind := corruptKindOf(err)
	// Two places a clean copy can come from. The repairer verifies the slot
	// it rewrites, so no re-read is needed (and none taken, keeping
	// ScrubPages == successful scrub reads exact). Failing that, the pool
	// itself may hold a trusted clean resident image: force-flush it, and the
	// ordinary write path (WAL append, trailer stamp, WriteBacks accounting)
	// replaces the damaged copy and clears injected taint. A repair the
	// scrub's own context ended leaves the detection unresolved: a later
	// sweep or read detects it again.
	repaired := p.repairer != nil && p.repairer.RepairPage(ctx, id) == nil
	if !repaired && ctx.Err() == nil {
		resident, err := p.flushResident(ctx, id, true)
		repaired = resident && err == nil
	}
	if !repaired && ctx.Err() != nil {
		return
	}
	p.scrubCorrupt.Add(1)
	p.resolveCorrupt(id, kind, repaired)
}

// scrubBatch is how many pages one background scrub tick examines.
const scrubBatch = 64

// scrubLoop is the background scrubber: every scrubInterval it sweeps
// scrubBatch pages. ctx is the pool's background context (Start):
// cancelling it ends the loop and aborts the disk I/O inside a sweep.
func (p *Pool) scrubLoop(ctx context.Context) {
	defer p.bg.Done()
	ticker := time.NewTicker(p.scrubInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		p.ScrubSweep(ctx, scrubBatch)
	}
}
