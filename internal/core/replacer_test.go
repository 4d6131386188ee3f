package core

import (
	"testing"

	"repro/internal/policy"
)

func TestReplacerPinSemantics(t *testing.T) {
	r := NewReplacer(2, Options{})
	r.RecordAccess(1)
	r.RecordAccess(2)
	// Admission makes a page a victim candidate.
	if got := r.PolicyStats().Evictable; got != 2 {
		t.Fatalf("Evictable = %d after two admissions, want 2", got)
	}
	r.SetEvictable(1, false)
	r.SetEvictable(2, false)
	if _, ok := r.Evict(); ok {
		t.Fatal("Evict succeeded with all pages pinned")
	}
	// Unpin 2 only; it is the one victim.
	r.SetEvictable(2, true)
	victim, ok := r.Evict()
	if !ok || victim != 2 {
		t.Fatalf("Evict = %d,%v, want 2,true", victim, ok)
	}
	if got := r.PolicyStats().Evictable; got != 0 {
		t.Fatalf("Evictable after evict = %d, want 0", got)
	}
}

func TestReplacerBackwardKOrder(t *testing.T) {
	r := NewReplacer(2, Options{})
	// Page 1: two accesses (finite distance). Pages 2, 3: one access each.
	r.RecordAccess(1) // t=1
	r.RecordAccess(1) // t=2
	r.RecordAccess(2) // t=3
	r.RecordAccess(3) // t=4
	// Victims in order: 2 (∞, older), 3 (∞, newer), then 1 (finite).
	want := []policy.PageID{2, 3, 1}
	for i, w := range want {
		got, ok := r.Evict()
		if !ok || got != w {
			t.Fatalf("eviction %d = %d,%v, want %d", i, got, ok, w)
		}
	}
}

func TestReplacerAccessRefreshesOrder(t *testing.T) {
	r := NewReplacer(1, Options{})
	r.RecordAccess(1)
	r.RecordAccess(2)
	// Touch 1 again: its last uncorrelated reference is now the most
	// recent, so 2 becomes the LRU victim among the ∞-distance pages.
	r.RecordAccess(1)
	victim, ok := r.Evict()
	if !ok || victim != 2 {
		t.Fatalf("Evict = %d,%v, want 2,true", victim, ok)
	}
}

func TestReplacerSetEvictableIdempotent(t *testing.T) {
	r := NewReplacer(2, Options{})
	r.RecordAccess(1)
	r.SetEvictable(1, true)
	r.SetEvictable(1, true)
	if got := r.PolicyStats().Evictable; got != 1 {
		t.Fatalf("Evictable = %d after double SetEvictable(true)", got)
	}
	r.SetEvictable(1, false)
	r.SetEvictable(1, false)
	if got := r.PolicyStats().Evictable; got != 0 {
		t.Fatalf("Evictable = %d after double SetEvictable(false)", got)
	}
	// Unknown pages are tolerated.
	r.SetEvictable(99, true)
	if got := r.PolicyStats().Evictable; got != 0 {
		t.Fatal("SetEvictable admitted an unknown page")
	}
}

// TestReplacerHistorySurvivesEviction: an evicted page keeps its HIST
// block (§2.1.2), so its re-admission reuses the block and the reference
// before the eviction survives as HIST(p,2).
func TestReplacerHistorySurvivesEviction(t *testing.T) {
	r := NewReplacer(2, Options{})
	r.RecordAccess(1) // t=1
	h := r.table.pages[1]
	if v, _ := r.Evict(); v != 1 {
		t.Fatal("setup eviction failed")
	}
	r.RecordAccess(2) // t=2
	r.RecordAccess(1) // t=3: readmitted; HIST shifts to [3,1]
	if r.table.pages[1] != h || !h.resident || !h.candidate {
		t.Fatal("re-admission did not reinstate the retained HIST block")
	}
	if h.times[0] != 3 || h.times[1] != 1 {
		t.Fatalf("HIST(1) = %v, want [3 1]", h.times)
	}
	if got := r.PolicyStats().HistoryBlocks; got < 2 {
		t.Fatalf("HistoryBlocks = %d, want >= 2", got)
	}
	// Page 1 now has a finite backward 2-distance; page 2 is infinite, so 2
	// must be the victim even though 1 was referenced longer ago first.
	victim, ok := r.Evict()
	if !ok || victim != 2 {
		t.Fatalf("Evict = %d,%v, want 2,true (retained history must count)", victim, ok)
	}
}

func TestReplacerCRP(t *testing.T) {
	r := NewReplacer(2, Options{CorrelatedReferencePeriod: 3})
	r.RecordAccess(1) // t=1
	r.RecordAccess(2) // t=2
	r.RecordAccess(3) // t=3
	r.RecordAccess(4) // t=4
	// At clock 4, pages 2,3,4 are inside the CRP (4-last <= 3); only page 1
	// (4-1 > 3) is eligible.
	victim, ok := r.Evict()
	if !ok || victim != 1 {
		t.Fatalf("Evict = %d,%v, want 1,true (only eligible page)", victim, ok)
	}
}
