package policy

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// refs is shorthand for building reference strings in tests.
func refs(ids ...PageID) []PageID { return ids }

// replay feeds a reference string to a cache and returns the hit pattern.
func replay(c Cache, trace []PageID) []bool {
	if ta, ok := c.(TraceAware); ok {
		ta.SetTrace(trace)
	}
	hits := make([]bool, len(trace))
	for i, p := range trace {
		hits[i] = c.Reference(p)
	}
	return hits
}

func countHits(hits []bool) int {
	n := 0
	for _, h := range hits {
		if h {
			n++
		}
	}
	return n
}

func TestValidateCapacityPanics(t *testing.T) {
	constructors := map[string]func(){
		"LRU":   func() { NewLRU(0) },
		"FIFO":  func() { NewFIFO(0) },
		"LFU":   func() { NewLFU(0) },
		"CLOCK": func() { NewClock(0) },
		"2Q":    func() { NewTwoQ(0) },
		"ARC":   func() { NewARC(0) },
		"A0":    func() { NewA0(0) },
		"B0":    func() { NewBelady(0) },
	}
	for name, f := range constructors {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: zero capacity did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(3)
	replay(c, refs(1, 2, 3))
	c.Reference(1) // order now (MRU→LRU): 1, 3, 2
	c.Reference(4) // evicts 2
	if c.Resident(2) {
		t.Error("LRU kept the least recently used page")
	}
	for _, p := range refs(1, 3, 4) {
		if !c.Resident(p) {
			t.Errorf("page %d should be resident", p)
		}
	}
}

func TestLRUHitMiss(t *testing.T) {
	c := NewLRU(2)
	hits := replay(c, refs(1, 2, 1, 3, 2))
	want := []bool{false, false, true, false, false} // 3 evicts... 1,2 -> touch 1 -> admit 3 evicts 2 -> 2 misses
	for i := range want {
		if hits[i] != want[i] {
			t.Errorf("ref %d: hit=%v, want %v (pattern %v)", i, hits[i], want[i], hits)
		}
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	c := NewFIFO(2)
	replay(c, refs(1, 2, 1, 1, 1)) // many hits on 1 must not save it
	c.Reference(3)                 // evicts 1, the oldest arrival
	if c.Resident(1) {
		t.Error("FIFO reordered on hit")
	}
	if !c.Resident(2) || !c.Resident(3) {
		t.Error("FIFO kept wrong pages")
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := NewLFU(3)
	replay(c, refs(1, 1, 1, 2, 2, 3))
	c.Reference(4) // evicts 3 (freq 1)
	if c.Resident(3) {
		t.Error("LFU evicted a more frequent page")
	}
	if !c.Resident(1) || !c.Resident(2) || !c.Resident(4) {
		t.Error("LFU resident set wrong")
	}
	if got := c.Freq(1); got != 3 {
		t.Errorf("Freq(1) = %d, want 3", got)
	}
	if got := c.Freq(99); got != 0 {
		t.Errorf("Freq(non-resident) = %d, want 0", got)
	}
}

func TestLFUTieBreakIsLRUWithinClass(t *testing.T) {
	c := NewLFU(2)
	replay(c, refs(1, 2)) // both freq 1; 1 is least recent
	c.Reference(3)        // must evict 1
	if c.Resident(1) {
		t.Error("LFU tie-break did not evict the least recently used")
	}
	if !c.Resident(2) || !c.Resident(3) {
		t.Error("LFU tie-break kept wrong pages")
	}
}

func TestLFUForgetsCountsOnEviction(t *testing.T) {
	c := NewLFU(2)
	replay(c, refs(1, 1, 1, 1, 2))
	c.Reference(3) // evicts 2 (freq 1)
	c.Reference(2) // readmitted with fresh count 1
	if got := c.Freq(2); got != 1 {
		t.Errorf("readmitted page freq = %d, want 1 (in-cache LFU must forget)", got)
	}
}

func TestClockSecondChance(t *testing.T) {
	c := NewClock(2)
	replay(c, refs(1, 2))
	c.Reference(1) // sets 1's reference bit
	c.Reference(3) // sweep clears bits; must evict 2 (bit already cleared second pass)
	if !c.Resident(1) {
		t.Error("CLOCK evicted a page with its reference bit set before pages without")
	}
	if c.Resident(2) {
		t.Error("CLOCK kept the page without a second chance")
	}
}

func TestTwoQGhostPromotion(t *testing.T) {
	c := NewTwoQTuned(4, 1, 4)
	// Fill A1in past Kin so 1 is pushed to the A1out ghost list.
	replay(c, refs(1, 2, 3, 4, 5)) // capacity reached, 1 evicted to ghost
	if c.Resident(1) {
		t.Fatal("page 1 should have been evicted from A1in")
	}
	hit := c.Reference(1) // ghost hit: promoted to Am, but still a miss
	if hit {
		t.Error("ghost hit reported as cache hit")
	}
	if !c.Resident(1) {
		t.Error("ghost hit did not readmit the page")
	}
}

func TestTwoQA1inHitNoPromotion(t *testing.T) {
	c := NewTwoQTuned(4, 4, 4)
	c.Reference(1)
	if !c.Reference(1) {
		t.Error("A1in hit not reported")
	}
}

func TestTwoQTunedValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewTwoQTuned(4, 0, 2) },
		func() { NewTwoQTuned(4, 5, 2) },
		func() { NewTwoQTuned(4, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid 2Q tuning did not panic")
				}
			}()
			f()
		}()
	}
}

func TestARCPromotesOnSecondReference(t *testing.T) {
	c := NewARC(4)
	c.Reference(1) // T1
	c.Reference(1) // must move to T2
	c.Reference(2)
	c.Reference(3)
	c.Reference(4)
	c.Reference(5) // full: replace prefers T1 (p=0)
	if !c.Resident(1) {
		t.Error("ARC evicted a twice-referenced page while once-referenced pages remain")
	}
}

func TestARCGhostHitAdaptsTarget(t *testing.T) {
	c := NewARC(2)
	// 1 is promoted to T2, then the miss on 3 runs REPLACE with |T1| > p,
	// pushing 2 into the B1 ghost list.
	replay(c, refs(1, 1, 2, 3))
	if c.Resident(2) {
		t.Fatal("expected 2 evicted to the B1 ghost list")
	}
	before := c.Target()
	c.Reference(2) // B1 ghost hit: p must grow
	if c.Target() <= before {
		t.Errorf("ARC target did not grow on B1 hit: %d -> %d", before, c.Target())
	}
	if !c.Resident(2) {
		t.Error("B1 ghost hit did not readmit")
	}
}

func TestA0KeepsTopProbabilityPages(t *testing.T) {
	c := NewA0(2)
	c.SetProbabilities(map[PageID]float64{1: 0.5, 2: 0.3, 3: 0.1, 4: 0.1})
	replay(c, refs(3, 4, 1, 2)) // 1 and 2 displace 3 and 4
	if !c.Resident(1) || !c.Resident(2) {
		t.Error("A0 did not retain the highest-probability pages")
	}
	c.Reference(3) // colder than everything resident: must not displace
	if c.Resident(3) {
		t.Error("A0 admitted a colder page over hotter residents")
	}
	if !c.Reference(1) {
		t.Error("hot page not a hit")
	}
}

func TestA0UnknownPageProbabilityZero(t *testing.T) {
	c := NewA0(1)
	c.SetProbabilities(map[PageID]float64{1: 0.9})
	c.Reference(1)
	c.Reference(99) // unknown page: β=0, not admitted
	if !c.Resident(1) || c.Resident(99) {
		t.Error("A0 displaced a known-hot page for an unknown page")
	}
}

func TestBeladyOptimalOnTextbookTrace(t *testing.T) {
	// Classic example: OPT on this trace with 3 frames has 7 misses.
	trace := refs(7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2)
	c := NewBelady(3)
	hits := replay(c, trace)
	misses := len(trace) - countHits(hits)
	if misses != 7 {
		t.Errorf("Belady misses = %d, want 7 (hits pattern %v)", misses, hits)
	}
}

func TestBeladyNeverWorseThanLRU(t *testing.T) {
	r := stats.NewRNG(123)
	for round := 0; round < 10; round++ {
		trace := make([]PageID, 3000)
		for i := range trace {
			trace[i] = PageID(r.Intn(60))
		}
		for _, cap := range []int{5, 15, 30} {
			lru := NewLRU(cap)
			opt := NewBelady(cap)
			hLRU := countHits(replay(lru, trace))
			hOPT := countHits(replay(opt, trace))
			if hOPT < hLRU {
				t.Fatalf("round %d cap %d: OPT hits %d < LRU hits %d", round, cap, hOPT, hLRU)
			}
		}
	}
}

func TestBeladyPanicsOnMisuse(t *testing.T) {
	c := NewBelady(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reference before SetTrace did not panic")
			}
		}()
		c.Reference(1)
	}()
	c.SetTrace(refs(1, 2))
	c.Reference(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("trace mismatch did not panic")
			}
		}()
		c.Reference(9)
	}()
}

func TestBeladyResetRewindsCursor(t *testing.T) {
	trace := refs(1, 2, 3, 1, 2, 3)
	c := NewBelady(2)
	h1 := countHits(replay(c, trace))
	c.Reset()
	h2 := 0
	for _, p := range trace {
		if c.Reference(p) {
			h2++
		}
	}
	if h1 != h2 {
		t.Errorf("hits after Reset differ: %d vs %d", h1, h2)
	}
}

// allPolicies builds one instance of every policy at the given capacity,
// ready to replay the given trace.
func allPolicies(capacity int, trace []PageID) []Cache {
	probs := make(map[PageID]float64)
	for _, p := range trace {
		probs[p]++
	}
	for p := range probs {
		probs[p] /= float64(len(trace))
	}
	a0 := NewA0(capacity)
	a0.SetProbabilities(probs)
	return []Cache{
		NewLRU(capacity),
		NewFIFO(capacity),
		NewLFU(capacity),
		NewClock(capacity),
		NewTwoQ(capacity),
		NewARC(capacity),
		NewFBR(capacity, 0),
		NewSLRU(capacity, 0.8),
		NewLIRS(capacity, 0, 0),
		NewTinyLFU(capacity),
		a0,
		NewBelady(capacity),
	}
}

// TestInvariantsAcrossPolicies replays random traces through every policy
// and checks the universal cache invariants.
func TestInvariantsAcrossPolicies(t *testing.T) {
	r := stats.NewRNG(2024)
	trace := make([]PageID, 5000)
	for i := range trace {
		trace[i] = PageID(r.Intn(80))
	}
	for _, capacity := range []int{1, 3, 17, 64, 200} {
		for _, c := range allPolicies(capacity, trace) {
			if ta, ok := c.(TraceAware); ok {
				ta.SetTrace(trace)
			}
			for i, p := range trace {
				hit := c.Reference(p)
				if hit && !c.Resident(p) {
					t.Fatalf("%s cap %d ref %d: hit but not resident", c.Name(), capacity, i)
				}
				if c.Name() != "A0" && !c.Resident(p) {
					// Every demand-paging policy admits the referenced page.
					t.Fatalf("%s cap %d ref %d: referenced page not resident", c.Name(), capacity, i)
				}
				if c.Len() > c.Capacity() {
					t.Fatalf("%s cap %d ref %d: Len %d exceeds capacity", c.Name(), capacity, i, c.Len())
				}
			}
			if c.Capacity() != capacity {
				t.Fatalf("%s: Capacity() = %d, want %d", c.Name(), c.Capacity(), capacity)
			}
		}
	}
}

// TestResetRestoresColdState verifies Reset produces the same hit counts as
// a fresh instance.
func TestResetRestoresColdState(t *testing.T) {
	r := stats.NewRNG(555)
	trace := make([]PageID, 2000)
	for i := range trace {
		trace[i] = PageID(r.Intn(40))
	}
	for _, c := range allPolicies(16, trace) {
		if ta, ok := c.(TraceAware); ok {
			ta.SetTrace(trace)
		}
		first := countHits(replayNoSetTrace(c, trace))
		c.Reset()
		second := countHits(replayNoSetTrace(c, trace))
		if first != second {
			t.Errorf("%s: hits before/after Reset differ: %d vs %d", c.Name(), first, second)
		}
	}
}

// replayNoSetTrace replays without re-installing the trace (Reset keeps it).
func replayNoSetTrace(c Cache, trace []PageID) []bool {
	hits := make([]bool, len(trace))
	for i, p := range trace {
		hits[i] = c.Reference(p)
	}
	return hits
}

// TestQuickCapacityRespected is a property test: for arbitrary small traces
// and capacities, no policy ever exceeds its capacity and Len is exact for
// recency policies once warm.
func TestQuickCapacityRespected(t *testing.T) {
	f := func(raw []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		trace := make([]PageID, len(raw))
		for i, x := range raw {
			trace[i] = PageID(x % 32)
		}
		for _, c := range allPolicies(capacity, trace) {
			if ta, ok := c.(TraceAware); ok {
				ta.SetTrace(trace)
			}
			for _, p := range trace {
				c.Reference(p)
				if c.Len() > capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHitRatioSanityOnHotSet: with a strongly skewed trace and enough
// capacity for the hot set, every policy achieves a decent hit ratio.
func TestHitRatioSanityOnHotSet(t *testing.T) {
	r := stats.NewRNG(77)
	trace := make([]PageID, 30000)
	for i := range trace {
		if r.Float64() < 0.9 {
			trace[i] = PageID(r.Intn(20)) // hot set of 20
		} else {
			trace[i] = PageID(20 + r.Intn(5000))
		}
	}
	for _, c := range allPolicies(50, trace) {
		hits := countHits(replay(c, trace))
		ratio := float64(hits) / float64(len(trace))
		if ratio < 0.5 {
			t.Errorf("%s: hit ratio %.3f below sanity threshold on 90/10 workload", c.Name(), ratio)
		}
	}
}
