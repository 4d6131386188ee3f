package core

import (
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/stats"
)

// TestSyncReplacerMatchesPlain drives a plain Replacer and a SyncReplacer
// through the same randomised call history; every return value must match,
// since buffering changes when events are applied, never what they do.
func TestSyncReplacerMatchesPlain(t *testing.T) {
	plain := NewReplacer(2, Options{})
	wrapped := NewSyncReplacer(2, Options{})
	r := stats.NewRNG(42)
	for i := 0; i < 20000; i++ {
		p := policy.PageID(r.Intn(200))
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			plain.RecordAccess(p)
			wrapped.RecordAccess(p)
		case 4, 5, 6:
			ev := r.Intn(2) == 0
			plain.SetEvictable(p, ev)
			wrapped.SetEvictable(p, ev)
		default:
			v1, ok1 := plain.Evict()
			v2, ok2 := wrapped.Evict()
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("op %d: Evict = (%d,%v) vs plain (%d,%v)", i, v2, ok2, v1, ok1)
			}
		}
		if got, want := wrapped.PolicyStats(), plain.PolicyStats(); got != want {
			t.Fatalf("op %d: PolicyStats diverged: %+v vs %+v", i, got, want)
		}
	}
}

// TestRecordAccessAdmitsUnseenPage pins the admitting contract callers
// outside the pool rely on (bench/probes.go builds its steady state with
// it): RecordAccess on a page the replacer has never seen makes it a
// resident victim candidate, so Evict returns it with no further call.
func TestRecordAccessAdmitsUnseenPage(t *testing.T) {
	s := NewSyncReplacer(2, Options{})
	const p = policy.PageID(11)
	s.RecordAccess(p)
	if v, ok := s.Evict(); !ok || v != p {
		t.Fatalf("Evict = (%d, %v), want (%d, true)", v, ok, p)
	}
	// The same holds for a page with retained history.
	s.RecordAccess(p)
	if v, ok := s.Evict(); !ok || v != p {
		t.Fatalf("Evict after readmission = (%d, %v), want (%d, true)", v, ok, p)
	}
	if got := s.BatchStats().Dropped; got != 0 {
		t.Errorf("Dropped = %d, want 0: admitting references are never stale", got)
	}
}

// TestBatchedStaleAccessDropped is the phantom-reference regression: a hit
// buffered for a page that leaves residency before the drain must be
// discarded, not applied — an admitting reference would re-admit it and
// fabricate a resident HIST block for a page the pool no longer holds. The
// eviction here goes straight to the table under the lock, skipping the
// flush Evict would do, to stand in for an eviction search that drained the
// ring just before the hit was enqueued.
func TestBatchedStaleAccessDropped(t *testing.T) {
	s := NewSyncReplacer(2, Options{})
	const p = policy.PageID(7)

	s.RecordAccess(p)
	if got := s.PolicyStats().Evictable; got != 1 {
		t.Fatalf("Evictable after admission flush = %d, want 1", got)
	}

	s.RecordHit(p)
	s.mu.Lock()
	v, ok := s.r.Evict()
	s.mu.Unlock()
	if !ok || v != p {
		t.Fatalf("Evict = (%d, %v), want (%d, true)", v, ok, p)
	}

	if got := s.PolicyStats().Evictable; got != 0 {
		t.Errorf("Evictable after stale drain = %d, want 0", got)
	}
	if got := s.BatchStats().Dropped; got != 1 {
		t.Errorf("Dropped = %d, want 1 (stale hit not discarded)", got)
	}
	if h := s.r.table.pages[p]; h == nil {
		t.Error("history block vanished entirely")
	} else if h.resident {
		t.Error("stale buffered hit re-admitted the evicted page (phantom HIST)")
	}
}

// TestBatchedMatchesUnbatchedRandomOps replays seeded random operation
// sequences — references, evictability flips, evictions,
// restores, removals — through the plain Replacer and a SyncReplacer with a
// tiny ring (so full-ring drains, not only forced flushes, split the
// sequence at arbitrary points). Victim choices, the traced decision
// (clock and Backward K-distance) and the final policy counters must match
// exactly: buffering events until a drain is observationally equivalent to
// the plain Replacer's eager calls on any serialisable history, with both
// §2.1 periods enabled.
//
// The generator honours the pool's contract — RecordHit is issued only
// for resident pages, misses go through RecordAccess — because
// that contract is exactly where the two sides are allowed to differ: an
// eager reference to a departed page re-admits it, a buffered hit is
// deliberately dropped (the phantom regression above).
func TestBatchedMatchesUnbatchedRandomOps(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		opts := Options{CorrelatedReferencePeriod: 2, RetainedInformationPeriod: 30}
		plain := NewReplacer(2, opts)
		batched := newSyncReplacer(2, opts, 7)
		plainTrace, batchedTrace := &recordingTracer{}, &recordingTracer{}
		plain.SetTracer(plainTrace)
		batched.SetTracer(batchedTrace)

		rng := stats.NewRNG(seed)
		const pages = 24
		resident := make(map[policy.PageID]bool)
		admit := func(p policy.PageID) {
			plain.RecordAccess(p)
			batched.RecordAccess(p)
			resident[p] = true
		}
		for op := 0; op < 20000; op++ {
			p := policy.PageID(rng.Intn(pages))
			switch rng.Intn(10) {
			case 0, 1, 2:
				if !resident[p] {
					admit(p)
					break
				}
				plain.RecordAccess(p)
				batched.RecordHit(p)
			case 3:
				admit(p)
			case 4:
				// A hit and a flip out of the index, back to back.
				if !resident[p] {
					admit(p)
					break
				}
				plain.RecordAccess(p)
				plain.SetEvictable(p, false)
				batched.RecordHit(p)
				batched.SetEvictable(p, false)
			case 5, 6:
				plain.SetEvictable(p, true)
				batched.SetEvictable(p, true)
			case 7:
				plain.SetEvictable(p, false)
				batched.SetEvictable(p, false)
			case 8, 9:
				v1, ok1 := plain.Evict()
				v2, ok2 := batched.Evict()
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("seed %d op %d: Evict diverged: (%d,%v) vs (%d,%v)", seed, op, v1, ok1, v2, ok2)
				}
				if ok1 {
					resident[v1] = false
					if rng.Intn(2) == 0 {
						plain.Restore(v1)
						batched.Restore(v2)
						resident[v1] = true
					}
				}
			}
			if op%251 == 0 {
				checkIndex(t, plain.table)
				checkIndex(t, batched.r.table)
			}
		}
		if got, want := batched.PolicyStats(), plain.PolicyStats(); got != want {
			t.Errorf("seed %d: policy stats %+v, want unbatched %+v", seed, got, want)
		}
		if st := batched.BatchStats(); st.Drains == 0 {
			t.Errorf("seed %d: the tiny ring never filled: %+v", seed, st)
		}
		// Drain the victim index on both sides: the full eviction order must
		// agree, which pins the index contents and keys exactly.
		for {
			v1, ok1 := plain.Evict()
			v2, ok2 := batched.Evict()
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("seed %d: final eviction order diverged: (%d,%v) vs (%d,%v)", seed, v1, ok1, v2, ok2)
			}
			if !ok1 {
				break
			}
		}
		if len(batchedTrace.evicts) != len(plainTrace.evicts) {
			t.Fatalf("seed %d: traced %d evictions, want %d", seed, len(batchedTrace.evicts), len(plainTrace.evicts))
		}
		for i, want := range plainTrace.evicts {
			if got := batchedTrace.evicts[i]; got != want {
				t.Fatalf("seed %d: traced eviction %d = %+v, want %+v", seed, i, got, want)
			}
		}
	}
}

// TestPurgedAndReadmittedWithinOneDrain covers a page retired by Evict,
// purged by a short Retained Information Period and re-admitted under a
// fresh block, all inside one drain. The old block's index entry must go
// with it — an orphan would be chosen as a victim twice, or dereference a
// block that no longer exists once a Correlated Reference Period makes
// selectVictim look at LAST.
func TestPurgedAndReadmittedWithinOneDrain(t *testing.T) {
	const a, b = policy.PageID(1), policy.PageID(2)
	s := NewSyncReplacer(2, Options{CorrelatedReferencePeriod: 1, RetainedInformationPeriod: 2})
	s.RecordAccess(a) // tick 1
	s.RecordAccess(b) // tick 2
	if v, ok := s.Evict(); !ok || v != a {
		t.Fatalf("Evict = (%d,%v), want (%d,true)", v, ok, a)
	}
	// One drain: a's block (LAST = 1) ages past the RIP and is purged at
	// tick 4 while still filed under {0,1,a}; a then returns at tick 6
	// under a new block.
	for i := 0; i < 3; i++ {
		s.RecordHit(b) // ticks 3, 4, 5
	}
	s.RecordAccess(a) // tick 6
	if st := s.BatchStats(); st.Events != 2 {
		t.Fatalf("setup drained mid-sequence: %+v", st)
	}
	if got := s.PolicyStats(); got.Purges != 1 || got.Evictable != 2 {
		t.Fatalf("stats %+v, want 1 purge and 2 evictable pages", got)
	}
	// Both pages are at infinite distance, so the old block was filed in
	// the ∞ list: Evict must have unlinked it through its own links.
	if n, heaped := listLen(s.r.table), len(s.r.table.heap); n != 2 || heaped != 0 {
		t.Errorf("list holds %d entries and heap %d after the drain, want 2 and 0 (orphan left behind)", n, heaped)
	}
	checkIndex(t, s.r.table)
	// Both pages sit inside the CRP at clock 6, so selectVictim walks the
	// whole list reading each entry's block, then falls back to the
	// minimum: b (HIST(b,1) = 2; its three hits were correlated) before a.
	for _, want := range []policy.PageID{b, a} {
		if v, ok := s.Evict(); !ok || v != want {
			t.Fatalf("Evict = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if v, ok := s.Evict(); ok {
		t.Errorf("a third eviction returned page %d", v)
	}
}

// TestEvictDecidesAtArrivalClock settles whether Evict needs to catch the
// table's clock up before deciding (the plain Replacer once did, for
// sharded tables that lagged a shared clock): it does not. References
// still sitting in the ring are applied inside Evict's own critical
// section, so the decision — CRP eligibility and the traced Backward
// K-distance, both defined over the full reference string (Definition 2.1)
// — is taken at the arrival clock.
func TestEvictDecidesAtArrivalClock(t *testing.T) {
	s := NewSyncReplacer(2, Options{})
	rec := &recordingTracer{}
	s.SetTracer(rec)
	const a, b = policy.PageID(0), policy.PageID(1)
	// Reference string a,b,a,b: ticks 1..4, none drained yet. At clock 4,
	// HIST(a) = [3,1] and HIST(b) = [4,2], so b_4(a,2) = 3 and b_4(b,2) = 2.
	for _, p := range []policy.PageID{a, b, a, b} {
		s.RecordAccess(p)
	}
	if st := s.BatchStats(); st.Events != 0 {
		t.Fatalf("test setup: events drained before Evict: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.Evict(); !ok {
			t.Fatal("expected two evictable pages")
		}
	}
	want := []tracedEvict{{page: a, clock: 4, kdist: 3}, {page: b, clock: 4, kdist: 2}}
	if len(rec.evicts) != len(want) {
		t.Fatalf("traced %d evictions, want %d", len(rec.evicts), len(want))
	}
	for i, ev := range rec.evicts {
		if ev != want[i] {
			t.Errorf("eviction %d traced %+v, want %+v", i, ev, want[i])
		}
	}
}

// stormOp issues one random replacer call; the storm tests below share it.
func stormOp(s *SyncReplacer, rng *stats.RNG, pages int) {
	p := policy.PageID(rng.Intn(pages))
	switch rng.Intn(10) {
	case 0:
		s.RecordAccess(p)
	case 1, 2, 3:
		s.RecordHit(p)
	case 4:
		s.SetEvictable(p, true)
	case 5:
		s.SetEvictable(p, false)
	case 6, 7:
		if v, ok := s.Evict(); ok && rng.Intn(2) == 0 {
			s.Restore(v)
		}
	case 8, 9:
		s.PolicyStats()
	}
}

// TestBatchedConcurrentDrainSafety hammers every operation from many
// goroutines to give the race detector the enqueue/drain/flush
// interleavings, then checks structural integrity: each page still
// evictable comes out exactly once.
func TestBatchedConcurrentDrainSafety(t *testing.T) {
	const pages = 64
	s := newSyncReplacer(2, Options{RetainedInformationPeriod: 50}, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g + 1))
			for i := 0; i < 4000; i++ {
				stormOp(s, rng, pages)
			}
		}(g)
	}
	wg.Wait()
	st := s.BatchStats()
	if st.Events == 0 || st.Drains == 0 {
		t.Errorf("storm recorded no drains: %+v", st)
	}
	if got := s.PolicyStats().Evictable; got < 0 || got > pages {
		t.Errorf("Evictable after storm = %d", got)
	}
	checkIndex(t, s.r.table)
	seen := make(map[policy.PageID]bool)
	for {
		v, ok := s.Evict()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("page %d evicted twice during drain", v)
		}
		seen[v] = true
	}
	if got := s.PolicyStats().Evictable; got != 0 {
		t.Errorf("Evictable = %d after drain, want 0", got)
	}
}
