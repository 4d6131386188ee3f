package core

import (
	"testing"

	"repro/internal/policy"
)

// recordingTracer collects every traced victim selection for assertions.
type recordingTracer struct {
	evicts []tracedEvict
}

type tracedEvict struct {
	page     policy.PageID
	clock    policy.Tick
	kdist    policy.Tick
	infinite bool
}

func (r *recordingTracer) TraceEvict(p policy.PageID, clock, kdist policy.Tick, infinite bool) {
	r.evicts = append(r.evicts, tracedEvict{p, clock, kdist, infinite})
}

func TestReplacerTracerAndStats(t *testing.T) {
	tr := &recordingTracer{}
	r := NewReplacer(2, Options{CorrelatedReferencePeriod: 1, RetainedInformationPeriod: 3})
	r.SetTracer(tr)

	r.RecordAccess(1) // t=1: admit
	r.RecordAccess(1) // t=2: within CRP of t=1 → collapse
	r.RecordAccess(2) // t=3: admit

	victim, ok := r.Evict()
	if !ok || victim != 1 {
		t.Fatalf("evict = (%v, %v), want (1, true)", victim, ok)
	}
	if len(tr.evicts) != 1 {
		t.Fatalf("traced %d evictions, want 1", len(tr.evicts))
	}
	// Page 1 has a single uncorrelated reference on record (K=2), so its
	// Backward K-distance is infinite.
	if ev := tr.evicts[0]; ev.page != 1 || !ev.infinite {
		t.Fatalf("evict trace = %+v, want page 1 with infinite K-distance", ev)
	}

	// Advance the clock past page 1's Retained Information Period
	// (last=2, RIP=3 → purged once clock > 5). The collapse and the purge
	// are counted, not traced: the tracer sees victim selections only.
	for p := policy.PageID(10); p < 14; p++ {
		r.RecordAccess(p)
	}
	st := r.PolicyStats()
	if st.Evictions != 1 || st.Collapses != 1 || st.Purges != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, 1 collapse, 1 purge", st)
	}
	if len(tr.evicts) != 1 {
		t.Fatalf("traced %d decisions, want the 1 eviction", len(tr.evicts))
	}
	if st.HistoryBlocks != len(r.table.pages) || st.Evictable != r.table.candidates {
		t.Fatalf("stats sizes %+v disagree with table", st)
	}
	checkIndex(t, r.table)
}

// TestReplacerEvictTracesFiniteKDistance drives a page to K uncorrelated
// references so the traced Backward K-distance is finite and matches
// Definition 2.1 (clock - HIST(p,K)).
func TestReplacerEvictTracesFiniteKDistance(t *testing.T) {
	tr := &recordingTracer{}
	r := NewReplacer(2, Options{})
	r.SetTracer(tr)

	r.RecordAccess(7) // t=1 → HIST(7,2)=... after second ref
	r.RecordAccess(7) // t=2: CRP=0, so uncorrelated; HIST = [2, 1]
	r.RecordAccess(8) // t=3 (so 7 is not the only page)
	r.SetEvictable(8, false)

	victim, ok := r.Evict()
	if !ok || victim != 7 {
		t.Fatalf("evict = (%v, %v), want (7, true)", victim, ok)
	}
	ev := tr.evicts[0]
	if ev.infinite {
		t.Fatal("K-distance must be finite after K uncorrelated references")
	}
	// clock=3, HIST(7,2)=1 → b(7,2) = 2.
	if ev.kdist != 2 || ev.clock != 3 {
		t.Fatalf("evict trace = %+v, want kdist 2 at clock 3", ev)
	}
}
