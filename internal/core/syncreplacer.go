package core

import (
	"sync"
	"time"

	"repro/internal/policy"
)

// SyncReplacer is the concurrent LRU-K replacer: a mutex and a FIFO event
// ring in front of one Replacer. Every mutating call only appends an event;
// a drain — when the ring fills, and before every eviction search or stats
// read — replays the ring into the Replacer's own methods and then has the
// table (batching, see histTable.index) sync its victim index once, so a
// pool's hot path pays no tree update per reference. The plain Replacer
// stays the single-threaded, eagerly indexed reference the differential
// tests compare against.
//
// Correctness rests on three invariants:
//
//  1. Arrival order is logical time. A reference's tick is its position
//     among the references in the ring's FIFO, which the one mutex makes
//     the order callers arrived in. Draining late therefore changes no
//     HIST or LAST value: the k-th reference is applied at tick k whenever
//     the drain runs.
//  2. One FIFO per table. Every event of every page goes through the one
//     ring, so the Replacer sees exactly the call sequence an eager caller
//     would have issued — which is why a single-threaded trace through a
//     pool on this replacer agrees bit-exactly with the Serial
//     reference pool (internal/bufferpool/serial_test.go) on a plain
//     Replacer.
//  3. Flush before deciding. Evict and PolicyStats drain the ring and
//     read the table in one critical section, so a victim is never chosen
//     on a window staler than the call itself and the table's clock at the
//     decision is the arrival clock.
//
// The one deliberate difference from an eager replacer is RecordHit: a
// buffered hit whose page left residency before the drain is dropped, not
// applied. Applying it would re-admit a page the pool no longer holds and
// fabricate a HIST entry for it — the phantom-reference class Restore
// exists to prevent. References that may admit go through RecordAccess.
type SyncReplacer struct {
	mu    sync.Mutex
	r     *Replacer
	ring  []event // fixed capacity; ring[:n] is pending, oldest first
	n     int
	stats BatchStats
	// drainObs, when set, observes each drain (event count, wall nanos
	// spent applying), under mu.
	drainObs func(events int, nanos int64)
	// drainHook, set only by in-package tests, sees each batch under mu
	// just before it is applied.
	drainHook func([]event)
}

// ringCapacity is the event ring's size. A larger ring amortises the
// end-of-drain index sync over more references per page (the dominant
// per-reference cost; see histTable.index) but lengthens the longest hold
// of the mutex; staleness at decision points is unaffected, since every
// eviction search and stats read drains first.
const ringCapacity = 256

// Event kinds.
const (
	evHit      = uint8(iota) // reference to a resident page; dropped if residency ended
	evAccess                 // reference that admits the page if it is not resident
	evEvictOn                // SetEvictable(p, true)
	evEvictOff               // SetEvictable(p, false)
	evRestore                // Restore(p)
)

type event struct {
	page policy.PageID
	kind uint8
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
	r := NewReplacer(k, opts)
	r.table.batching = true // drain syncs the victim index once per batch
	return &SyncReplacer{r: r, ring: make([]event, capacity)}
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

// RecordAccess notes a reference to page p, admitting it as a victim
// candidate if it is not resident — the reference a pool records for a
// miss read or a fresh allocation.
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

// Restore reinstates residency and candidacy after an abandoned eviction
// without advancing the clock or touching the page's HIST block.
func (s *SyncReplacer) Restore(p policy.PageID) { s.enqueue(p, evRestore) }

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

// drain applies the pending events to the Replacer, then has the table
// re-file its victim index once for the batch. The intermediate index
// states are unobservable — mu is held throughout, and Evict, the index's
// only reader, drains first. The caller holds mu.
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
	s.r.table.sync()
	s.stats.Events += uint64(s.n)
	if s.drainObs != nil {
		s.drainObs(s.n, time.Since(start).Nanoseconds())
	}
	s.n = 0
}

// apply replays one event into the Replacer.
func (s *SyncReplacer) apply(e event) {
	switch e.kind {
	case evHit:
		if !s.r.recordHit(e.page) {
			s.stats.Dropped++
		}
	case evAccess:
		s.r.RecordAccess(e.page)
	case evEvictOn:
		s.r.SetEvictable(e.page, true)
	case evEvictOff:
		s.r.SetEvictable(e.page, false)
	case evRestore:
		s.r.Restore(e.page)
	}
}
