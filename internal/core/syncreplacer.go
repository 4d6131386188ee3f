package core

import (
	"sync"
	"time"

	"repro/internal/policy"
)

// SyncReplacer is the concurrent LRU-K replacer: one Replacer (one HIST
// table, one global victim order, Definition 2.2) and one FIFO event ring,
// both behind one mutex. A buffer pool's hot path must not pay a victim-
// index update per reference, so every mutating call only appends an event
// to the ring; the ring is applied to the table in batches — when it fills,
// and before every eviction search or stats read. The plain Replacer stays
// the single-threaded reference the differential tests compare against.
//
// Correctness rests on three invariants:
//
//  1. Arrival order is logical time. A reference's tick is its position
//     among the references in the ring's FIFO, which the one mutex makes
//     the order callers arrived in. Draining late therefore changes no
//     HIST or LAST value: the k-th reference is applied at tick k whenever
//     the drain runs.
//  2. One FIFO per table. Every event of every page goes through the one
//     ring, so the table replays exactly the call sequence an eager caller
//     would have issued — which is why a single-threaded trace through a
//     pool on this replacer reconciles bit-exactly with the Serial
//     reference pool (internal/bufferpool/serial_test.go) on a plain
//     Replacer.
//  3. Flush before deciding. Evict, Size, HistorySize and PolicyStats
//     drain the ring and read the table in one critical section, so a
//     victim is never chosen on a window staler than the call itself and
//     the table's clock at the decision is the arrival clock.
//
// The one deliberate difference from an eager replacer is RecordHit: a
// buffered hit whose page left residency before the drain is dropped, not
// applied. Applying it would re-admit a page the pool no longer holds and
// fabricate a HIST entry for it — the phantom-reference class Restore
// exists to prevent. References that may admit go through RecordAccess.
type SyncReplacer struct {
	mu   sync.Mutex
	r    *Replacer
	ring []event // fixed capacity; ring[:n] is pending, oldest first
	n    int
	// staged records, during a drain, each touched page's victim-index entry
	// as it stood when the drain began (see stage / reconcile). Empty
	// outside a drain.
	staged map[policy.PageID]stagedIndex
	stats  BatchStats
	// drainObs, when set, observes each drain (event count, wall nanos
	// spent applying), under mu.
	drainObs func(events int, nanos int64)
	// drainHook, set only by in-package tests, sees each batch under mu
	// just before it is applied.
	drainHook func([]event)
}

// ringCapacity is the event ring's size. A larger ring amortises the
// end-of-drain index reconcile over more references per page (the dominant
// per-reference cost; see apply) but lengthens the longest hold of the
// mutex; staleness at decision points is unaffected, since every eviction
// search and stats read drains first.
const ringCapacity = 256

// Event kinds. The two reference kinds come first and advance the
// logical clock (apply relies on the order).
const (
	evHit      = uint8(iota) // reference to a resident page; dropped if residency ended
	evAccess                 // reference that admits the page if it is not resident
	evEvictOn                // SetEvictable(p, true)
	evEvictOff               // SetEvictable(p, false)
	evRestore                // Restore(p)
	evRemove                 // Remove(p)
)

type event struct {
	page policy.PageID
	kind uint8
}

// stagedIndex is a page's victim-index entry at the start of a drain.
type stagedIndex struct {
	key     vkey
	indexed bool
}

// BatchStats is a snapshot of a SyncReplacer's drain counters.
type BatchStats struct {
	Drains  uint64 // drains triggered by a full ring
	Flushes uint64 // forced drains (eviction search, stats reads)
	Events  uint64 // events applied to the table
	Dropped uint64 // stale hits discarded at drain (page left residency)
}

// NewSyncReplacer returns the concurrent LRU-K replacer with history depth
// k and the given §2.1 periods.
func NewSyncReplacer(k int, opts Options) *SyncReplacer {
	return newSyncReplacer(k, opts, ringCapacity)
}

// newSyncReplacer lets in-package tests pick a tiny ring to force drains.
func newSyncReplacer(k int, opts Options, capacity int) *SyncReplacer {
	return &SyncReplacer{
		r:      NewReplacer(k, opts),
		ring:   make([]event, capacity),
		staged: make(map[policy.PageID]stagedIndex),
	}
}

// SetDrainObserver installs fn to observe each drain's event count and
// apply latency. Call before the replacer sees concurrent traffic.
func (s *SyncReplacer) SetDrainObserver(fn func(events int, nanos int64)) { s.drainObs = fn }

func (s *SyncReplacer) enqueue(p policy.PageID, kind uint8) {
	s.mu.Lock()
	s.ring[s.n] = event{page: p, kind: kind}
	s.n++
	if s.n == len(s.ring) {
		s.drain()
		s.stats.Drains++
	}
	s.mu.Unlock()
}

// RecordAccess notes a reference to page p, admitting it if it is not
// resident — the reference a pool records for a miss read or a fresh
// allocation.
func (s *SyncReplacer) RecordAccess(p policy.PageID) { s.enqueue(p, evAccess) }

// RecordHit notes a reference to a page the caller holds resident. If the
// page has left residency by the time the event is applied (an eviction
// search chose it between the caller's pin and this call), the reference is
// dropped rather than re-admitting the page.
func (s *SyncReplacer) RecordHit(p policy.PageID) { s.enqueue(p, evHit) }

// SetEvictable marks whether p may be chosen as a victim.
func (s *SyncReplacer) SetEvictable(p policy.PageID, evictable bool) {
	if evictable {
		s.enqueue(p, evEvictOn)
	} else {
		s.enqueue(p, evEvictOff)
	}
}

// Restore reinstates residency after an abandoned eviction without
// advancing the clock or touching the page's HIST block.
func (s *SyncReplacer) Restore(p policy.PageID) { s.enqueue(p, evRestore) }

// Remove drops p without treating it as an eviction decision.
func (s *SyncReplacer) Remove(p policy.PageID) { s.enqueue(p, evRemove) }

// flush is the forced drain ahead of a decision or a stats read. The
// caller holds mu and reads the table before releasing it.
func (s *SyncReplacer) flush() {
	s.drain()
	s.stats.Flushes++
}

// Evict applies every pending event, then selects and removes a victim.
func (s *SyncReplacer) Evict() (policy.PageID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
	return s.r.Evict()
}

// Size returns the number of evictable pages.
func (s *SyncReplacer) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
	return s.r.Size()
}

// HistorySize returns the number of retained history control blocks.
func (s *SyncReplacer) HistorySize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
	return s.r.HistorySize()
}

// PolicyStats returns the replacer's decision counts and table sizes.
func (s *SyncReplacer) PolicyStats() PolicyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
	return s.r.PolicyStats()
}

// BatchStats returns a snapshot of the drain counters.
func (s *SyncReplacer) BatchStats() BatchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetTracer installs a PolicyTracer; it is invoked under the replacer's
// mutex.
func (s *SyncReplacer) SetTracer(tr PolicyTracer) {
	s.mu.Lock()
	s.r.SetTracer(tr)
	s.mu.Unlock()
}

// drain applies the pending events to the table. The caller holds mu.
func (s *SyncReplacer) drain() {
	if s.n == 0 {
		return
	}
	var start time.Time
	if s.drainObs != nil {
		start = time.Now()
	}
	evs := s.ring[:s.n]
	if s.drainHook != nil {
		s.drainHook(evs)
	}
	for _, e := range evs {
		s.apply(e)
	}
	s.reconcile()
	s.stats.Events += uint64(s.n)
	if s.drainObs != nil {
		s.drainObs(s.n, time.Since(start).Nanoseconds())
	}
	s.n = 0
}

// apply replays one event against the table.
//
// Within a drain, events mutate only the HIST table and the evictable set;
// the victim index is left untouched and reconciled once per touched page
// at the end of the drain. A profile of the hit path shows why: a resident
// page stays in the victim index while it is referenced, every reference
// moves its key, and eagerly mirroring each move into the red-black index
// (a tree delete plus insert per reference) dominates the per-reference
// cost. The intermediate index states are unobservable — mu is held for
// the whole drain, and Evict, the index's only reader, drains first — and
// the index is a pure function of the evictable set and the HIST table, so
// the reconciled result is bit-identical to eager maintenance.
func (s *SyncReplacer) apply(e event) {
	t, evictable := s.r.table, s.r.evictable
	var now policy.Tick
	if e.kind <= evAccess {
		now = t.tick() // may purge retained blocks: look the page up after it
	}
	h, ok := t.pages[e.page]
	resident := ok && h.resident
	switch e.kind {
	case evHit:
		if !resident {
			s.stats.Dropped++
			return
		}
		s.stage(e.page, h)
		t.touchResident(e.page, h, now, false)
	case evAccess:
		if resident {
			s.stage(e.page, h)
			t.touchResident(e.page, h, now, false)
			return
		}
		// Non-resident, hence never indexed: nothing to stage.
		t.admit(e.page, now, false)
	case evEvictOn:
		if resident && !evictable[e.page] {
			s.stage(e.page, h)
			evictable[e.page] = true
		}
	case evEvictOff:
		if resident && evictable[e.page] {
			s.stage(e.page, h)
			delete(evictable, e.page)
		}
	case evRestore:
		// An evicted page is in neither the index nor the evictable set,
		// and Restore adds it to neither: nothing to stage.
		s.r.Restore(e.page)
	case evRemove:
		if resident {
			s.stage(e.page, h)
			delete(evictable, e.page)
			t.evictResident(e.page, h)
		}
	}
}

// stage records resident page p's victim-index entry as it stands before
// the drain's first event mutates the state it derives from. Idempotent
// within a drain.
func (s *SyncReplacer) stage(p policy.PageID, h *hist) {
	if _, ok := s.staged[p]; ok {
		return
	}
	var e stagedIndex
	if s.r.evictable[p] {
		e = stagedIndex{key: h.key(p), indexed: true}
	}
	s.staged[p] = e
}

// reconcile brings the victim index in line with the evictable set and
// HIST table for every page staged during the drain: at most one delete
// and one insert per page, however many events touched it.
func (s *SyncReplacer) reconcile() {
	t := s.r.table
	for p, e := range s.staged {
		h, ok := t.pages[p]
		should := ok && h.resident && s.r.evictable[p]
		var nk vkey
		if should {
			nk = h.key(p)
		}
		if e.indexed && (!should || nk != e.key) {
			t.index.Delete(e.key)
		}
		if should && (!e.indexed || nk != e.key) {
			t.index.Set(nk, struct{}{})
		}
	}
	clear(s.staged)
}
