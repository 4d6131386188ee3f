package core

import (
	"testing"

	"repro/internal/policy"
)

// lockstep drives the eager Replacer, a SyncReplacer that drains only when
// a decision or a check flushes it, and the brute-force model through one
// scripted history, holding all three to each other. The scripts below are
// the ∞ list's corner cases: each ends in the full eviction order.
type lockstep struct {
	t     *testing.T
	brute *bruteReplacer
	plain *Replacer
	ring  *SyncReplacer
}

func newLockstep(t *testing.T, k int, opts Options) *lockstep {
	return &lockstep{t: t, brute: newBruteReplacer(k, opts), plain: NewReplacer(k, opts), ring: newSyncReplacer(k, opts, 64)}
}

func (l *lockstep) access(ps ...policy.PageID) {
	for _, p := range ps {
		l.brute.RecordAccess(p, false)
		l.plain.RecordAccess(p)
		l.ring.RecordAccess(p)
	}
}

// hit references pages the script keeps resident.
func (l *lockstep) hit(ps ...policy.PageID) {
	for _, p := range ps {
		if l.brute.RecordAccess(p, true) {
			l.t.Fatalf("script bug: hit on page %d, which is not resident", p)
		}
		l.plain.RecordAccess(p)
		l.ring.RecordHit(p)
	}
}

func (l *lockstep) evict(want ...policy.PageID) {
	l.t.Helper()
	for _, w := range want {
		b, okb := l.brute.Evict()
		v1, ok1 := l.plain.Evict()
		v2, ok2 := l.ring.Evict()
		if b != w || v1 != w || v2 != w || !okb || !ok1 || !ok2 {
			l.t.Fatalf("Evict: brute force (%d,%v), Replacer (%d,%v), SyncReplacer (%d,%v), want %d", b, okb, v1, ok1, v2, ok2, w)
		}
	}
}

// filed drains the ring, checks both tables against the model, and
// asserts which container holds each page: the ∞ list for listed, the heap
// for the rest.
func (l *lockstep) filed(listed, heaped []policy.PageID) {
	l.t.Helper()
	l.ring.PolicyStats()
	for _, tbl := range []*histTable{l.plain.table, l.ring.r.table} {
		checkAgainstBrute(l.t, tbl, l.brute)
		for _, p := range listed {
			if h := tbl.pages[p]; h.prev == nil {
				l.t.Fatalf("page %d (HIST %v) is not in the ∞ list", p, h.times)
			}
		}
		for _, p := range heaped {
			if h := tbl.pages[p]; h.pos < 0 {
				l.t.Fatalf("page %d (HIST %v) is not in the heap", p, h.times)
			}
		}
	}
}

// drained evicts the rest in the given order and checks nothing is left.
func (l *lockstep) drained(want ...policy.PageID) {
	l.t.Helper()
	l.evict(want...)
	if _, ok := l.brute.Evict(); ok {
		l.t.Fatal("the model holds candidates beyond the expected order")
	}
	_, ok1 := l.plain.Evict()
	_, ok2 := l.ring.Evict()
	if ok1 || ok2 {
		l.t.Fatal("a replacer holds candidates beyond the expected order")
	}
}

const pa, pb, pc, pd, pe, pf, pg policy.PageID = 1, 2, 3, 4, 5, 6, 7

// TestListReFiledOutOfAdmissionOrder: with K = 3 a page stays at infinite
// distance through its second reference. e and f are admitted in that
// order and then re-referenced in the other, all in one drain, so each
// re-reference moves its page to the back of the list past the other.
func TestListReFiledOutOfAdmissionOrder(t *testing.T) {
	l := newLockstep(t, 3, Options{})
	l.access(pa, pb, pc) // ticks 1-3
	l.filed([]policy.PageID{pa, pb, pc}, nil)
	l.access(pe, pf) // ticks 4, 5
	l.hit(pf, pe)    // ticks 6, 7: HIST(f,1) = 6 < HIST(e,1) = 7
	if got := l.ring.BatchStats().Events; got != 3 {
		t.Fatalf("the ring drained mid-script: %d events applied, want 3", got)
	}
	l.filed([]policy.PageID{pa, pb, pc, pe, pf}, nil)
	l.drained(pa, pb, pc, pf, pe)
}

// TestListEveryCandidateInsideCRP: when no ∞ page is outside its
// Correlated Reference Period, the search moves on to the heap; when no
// page at all is, the victim is the list's head, not the heap's minimum.
func TestListEveryCandidateInsideCRP(t *testing.T) {
	l := newLockstep(t, 2, Options{CorrelatedReferencePeriod: 3})
	l.access(pd, pe, pf, pg) // ticks 1-4
	l.hit(pd)                // tick 5: uncorrelated, d is finite
	l.evict(pe, pf, pg)      // all inside the CRP: the list head goes first
	l.access(pa, pb, pc)     // ticks 6-8; LAST(d) = 5 is inside the CRP too
	l.filed([]policy.PageID{pa, pb, pc}, []policy.PageID{pd})
	l.evict(pa, pb) // the fallback: list head, although the heap holds d
	l.hit(pc)       // tick 9: correlated; d is now outside its period
	l.evict(pd)     // the heap's eligible page beats the ineligible list
	l.drained(pc)
}

// TestListPageCrossesToHeap: a correlated reference leaves a page in the
// list; its K-th uncorrelated reference moves it to the heap.
func TestListPageCrossesToHeap(t *testing.T) {
	l := newLockstep(t, 2, Options{CorrelatedReferencePeriod: 2})
	l.access(pa) // tick 1
	l.hit(pa)    // tick 2: correlated, only LAST moves
	l.access(pb, pc)
	l.filed([]policy.PageID{pa, pb, pc}, nil)
	l.hit(pa) // tick 5: HIST(a) = [5, 2]
	l.filed([]policy.PageID{pb, pc}, []policy.PageID{pa})
	l.drained(pb, pc, pa)
}

// TestListReadmissionWithHistory: a page re-admitted with retained history
// has a finite key at once and is filed straight into the heap.
func TestListReadmissionWithHistory(t *testing.T) {
	l := newLockstep(t, 2, Options{})
	l.access(pa, pb) // ticks 1, 2
	l.evict(pa)
	l.access(pa) // tick 3: HIST(a) = [3, 1]
	l.filed([]policy.PageID{pb}, []policy.PageID{pa})
	l.drained(pb, pa)
}
