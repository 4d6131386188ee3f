package core

import (
	"fmt"

	"repro/internal/policy"
)

// Replacer is the buffer-pool-facing form of LRU-K: a victim selector over
// pages whose residency, pinning and eviction are controlled externally by
// a buffer-pool manager. A page becomes a victim candidate when it is
// admitted (RecordAccess of a page not resident) or restored; pages marked
// evictable=false are never chosen. The Serial reference pool clears the
// mark on every pin and sets it again when the pin count returns to zero;
// the concurrent Pool never touches it, and skips the victims it finds
// pinned.
//
// This is the shape a real database engine embeds (the paper's prototype
// inside the Amdahl Huron buffer manager). The trace simulator's LRUK is a
// Replacer plus a frame count, so the simulator and the pool run the same
// Figure 2.1 transitions.
//
// Replacer is not safe for concurrent use; SyncReplacer is the concurrent
// form.
type Replacer struct {
	table *histTable
	// evictions counts victim selections (see PolicyStats).
	evictions uint64
	// tracer, when set, receives every victim selection.
	tracer PolicyTracer
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
// A page not yet resident is admitted as a victim candidate.
func (r *Replacer) RecordAccess(p policy.PageID) {
	if !r.recordHit(p) {
		r.admit(p)
	}
}

// admit installs p as a resident victim candidate at the current tick: the
// bottom branch of Figure 2.1, after any eviction the miss needed.
func (r *Replacer) admit(p policy.PageID) { r.table.admit(p, r.table.clock) }

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

// holds reports whether p is resident.
func (r *Replacer) holds(p policy.PageID) bool {
	_, ok := r.table.resident(p)
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

// Restore reinstates page p as a resident victim candidate after an
// eviction was abandoned (the buffer pool found the victim pinned, or its
// dirty write-back failed and the data exists only in memory). Unlike
// RecordAccess it does not advance the clock and leaves the HIST block
// exactly as it was before Evict removed it: the abandonment is not a page
// reference, and fabricating one would corrupt the page's Backward
// K-distance.
//
// If the history block was purged between Evict and Restore (possible
// under a short Retained Information Period), a fresh block is allocated
// at the current clock, as for a first reference.
func (r *Replacer) Restore(p policy.PageID) {
	h, ok := r.table.pages[p]
	if !ok {
		r.admit(p)
		return
	}
	if h.resident {
		return // re-admitted by a racing reference; nothing to reinstate
	}
	// The retirement entry Evict queued stays behind as a stale record; the
	// retention demon's lazy validation skips it while the page is resident.
	h.resident = true
	r.table.setCandidate(h, true)
}

// Evict selects, removes and returns the victim page: the evictable page
// with the maximal Backward K-distance, honouring the Correlated Reference
// Period eligibility rule. ok is false when nothing is evictable.
func (r *Replacer) Evict() (policy.PageID, bool) {
	victim, ok := r.table.selectVictim(r.table.clock)
	if !ok {
		return policy.InvalidPage, false
	}
	r.table.retireResident(r.table.pages[victim])
	r.evictions++
	if r.tracer != nil {
		// The Backward K-distance (Definition 2.1) that justified the choice;
		// retiring the block changed neither its HIST nor the clock.
		kdist, finite := r.table.backwardKDistance(victim)
		r.tracer.TraceEvict(victim, r.table.clock, kdist, !finite)
	}
	return victim, true
}

// reset empties the replacer, keeping K and the §2.1 periods.
func (r *Replacer) reset() {
	*r = Replacer{table: newHistTable(r.table.k, r.table.crp, r.table.rip)}
}

// dropOldestRetained purges the oldest retained history block ahead of its
// Retained Information Period (see BudgetedLRUK).
func (r *Replacer) dropOldestRetained() bool { return r.table.dropOldestRetained() }

// SetTracer installs (or, with nil, removes) a PolicyTracer receiving this
// replacer's victim selections.
func (r *Replacer) SetTracer(tr PolicyTracer) { r.tracer = tr }

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
