package core

import (
	"fmt"

	"repro/internal/policy"
)

// Replacer is the buffer-pool-facing form of LRU-K: a victim selector over
// pages whose residency, pinning and eviction are controlled externally by
// a buffer-pool manager. Pages marked evictable=false are never chosen as
// victims. The Serial reference pool flips the mark on every pin count
// zero-crossing; the concurrent Pool sets it once, when a page becomes
// resident, and skips the victims it finds pinned.
//
// This is the shape a real database engine embeds (the paper's prototype
// inside the Amdahl Huron buffer manager); the trace simulator uses the
// simpler LRUK type instead.
//
// Replacer is not safe for concurrent use; SyncReplacer is the concurrent
// form.
type Replacer struct {
	table *histTable
	// evictions counts victim selections (see PolicyStats).
	evictions uint64
}

// NewReplacer returns an LRU-K replacer for a pool with the given history
// depth and §2.1 periods.
func NewReplacer(k int, opts Options) *Replacer {
	if k < 1 {
		panic(fmt.Sprintf("core: K must be at least 1, got %d", k))
	}
	return &Replacer{table: newHistTable(k, opts.CorrelatedReferencePeriod, opts.RetainedInformationPeriod)}
}

// RecordAccess notes a reference to page p, which the pool has made (or is
// about to make) resident. It advances the logical clock by one reference.
func (r *Replacer) RecordAccess(p policy.PageID) {
	if !r.recordHit(p) {
		// New residency; pages enter pinned, so not a candidate yet.
		r.table.admit(p, r.table.clock, false)
	}
}

// recordHit advances the logical clock by one reference and, if p is
// resident, records the reference against it. It reports whether it was:
// RecordAccess admits the page otherwise, SyncReplacer drops the reference.
func (r *Replacer) recordHit(p policy.PageID) bool {
	now := r.table.tick() // may purge retained blocks: look the page up after it
	h, ok := r.table.resident(p)
	if ok {
		r.table.touch(h, now)
	}
	return ok
}

// SetEvictable marks whether page p may be chosen as a victim; when a pool
// calls it is the pool's protocol (see the type comment). Calls for pages
// the replacer does not hold resident are ignored, matching the tolerance
// a pool needs during recovery paths.
func (r *Replacer) SetEvictable(p policy.PageID, evictable bool) {
	if h, ok := r.table.resident(p); ok {
		r.table.setCandidate(h, evictable)
	}
}

// Restore reinstates page p as resident after an eviction was abandoned
// (the buffer pool found the victim pinned, or its dirty write-back
// failed and the data exists only in memory). Unlike RecordAccess it does
// not advance the clock and leaves the HIST block exactly as it was before
// Evict removed it: the abandonment is not a page reference, and
// fabricating one would corrupt the page's Backward K-distance. The page
// becomes a victim candidate again only through a later SetEvictable.
//
// If the history block was purged between Evict and Restore (possible
// under a short Retained Information Period), a fresh block is allocated
// at the current clock, as for a first reference.
func (r *Replacer) Restore(p policy.PageID) {
	h, ok := r.table.pages[p]
	if !ok {
		r.table.admit(p, r.table.clock, false)
		return
	}
	if h.resident {
		return // re-admitted by a racing reference; nothing to reinstate
	}
	// The retirement entry Evict queued stays behind as a stale record; the
	// retention demon's lazy validation skips it while the page is resident.
	h.resident = true
}

// Evict selects, removes and returns the victim page: the evictable page
// with the maximal Backward K-distance, honouring the Correlated Reference
// Period eligibility rule. ok is false when nothing is evictable.
func (r *Replacer) Evict() (policy.PageID, bool) {
	victim, ok := r.table.evict(r.table.clock)
	if !ok {
		return policy.InvalidPage, false
	}
	r.evictions++
	if tr := r.table.tracer; tr != nil {
		// The Backward K-distance (Definition 2.1) that justified the choice;
		// retiring the block changed neither its HIST nor the clock.
		kdist, finite := r.table.backwardKDistance(victim)
		tr.TraceEvict(victim, r.table.clock, kdist, !finite)
	}
	return victim, true
}

// Remove drops page p from the replacer entirely (page deallocated rather
// than evicted); its history is retired as on eviction, since a reallocated
// page id may recur.
func (r *Replacer) Remove(p policy.PageID) {
	if h, ok := r.table.resident(p); ok {
		r.table.retireResident(h)
	}
}

// Size returns the number of evictable pages.
func (r *Replacer) Size() int { return r.table.candidates }

// HistorySize returns the number of retained history control blocks.
func (r *Replacer) HistorySize() int { return r.table.historyLen() }

// SetTracer installs (or, with nil, removes) a PolicyTracer receiving this
// replacer's eviction, collapse and purge decisions.
func (r *Replacer) SetTracer(tr PolicyTracer) { r.table.tracer = tr }

// PolicyStats returns the replacer's cumulative decision counts and current
// table sizes.
func (r *Replacer) PolicyStats() PolicyStats {
	return PolicyStats{
		Evictions:     r.evictions,
		Collapses:     r.table.collapses,
		Purges:        r.table.purges,
		HistoryBlocks: r.table.historyLen(),
		Evictable:     r.table.candidates,
	}
}
