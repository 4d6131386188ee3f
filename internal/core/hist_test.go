package core

import (
	"testing"
	"unsafe"

	"repro/internal/policy"
)

// TestHistBlockSize pins the HIST block at 64 bytes, an allocator size
// class: the heap slot takes four bytes beside the two bools.
func TestHistBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(hist{}); got > 64 {
		t.Errorf("hist block is %d bytes, want at most 64", got)
	}
}

// listLen counts the ∞ list's entries.
func listLen(t *histTable) int {
	n := 0
	for h := t.lru.next; h != &t.lru; h = h.next {
		n++
	}
	return n
}

// checkIndex asserts what eager re-filing promises: every resident
// candidate has exactly one entry — in the ∞ list iff its key is at
// infinite distance (or K = 1), in the heap otherwise; the list is linked
// both ways in (HIST(p,1), page) order; each heap entry's recorded slot is
// its slot and no child sorts before its parent; and the list and the heap
// together are as large as the candidate counter says. Equal sizes plus
// every candidate's entry present leaves no room for an orphan.
func checkIndex(tb testing.TB, t *histTable) {
	tb.Helper()
	for h := t.lru.next; h != &t.lru; h = h.next {
		if h.next.prev != h || h.prev.next != h {
			tb.Fatalf("∞ list links around page %d are broken", h.page)
		}
		if t.pages[h.page] != h {
			tb.Fatalf("∞ list holds a block of page %d the table does not", h.page)
		}
		if h.prev != &t.lru && !before(h.prev, h) {
			tb.Fatalf("∞ list out of order: page %d (HIST %v) before page %d (HIST %v)",
				h.prev.page, h.prev.times, h.page, h.times)
		}
	}
	for i, h := range t.heap {
		if int(h.pos) != i {
			tb.Fatalf("heap slot %d holds page %d, which records slot %d", i, h.page, h.pos)
		}
		if t.pages[h.page] != h {
			tb.Fatalf("heap holds a block of page %d the table does not", h.page)
		}
		if parent := (i - 1) / 2; i > 0 && before(h, t.heap[parent]) {
			tb.Fatalf("heap slot %d (page %d, HIST %v) sorts before its parent (page %d, HIST %v)",
				i, h.page, h.times, t.heap[parent].page, t.heap[parent].times)
		}
	}
	want := 0
	for p, h := range t.pages {
		if h.page != p {
			tb.Fatalf("block of page %d says it is page %d", p, h.page)
		}
		if h.candidate && !h.resident {
			tb.Fatalf("page %d is a candidate but not resident", p)
		}
		if h.candidate {
			want++
		}
		inList, inHeap := h.prev != nil, h.pos >= 0
		if inList && inHeap || (inList || inHeap) != h.candidate {
			tb.Fatalf("page %d: in list %v, in heap %v, candidate %v", p, inList, inHeap, h.candidate)
		}
		if h.candidate && inList != t.listed(h) {
			tb.Fatalf("page %d with HIST %v filed in the list = %v, want %v", p, h.times, inList, !inList)
		}
	}
	if n := listLen(t) + len(t.heap); n != want || t.candidates != want {
		tb.Fatalf("list and heap hold %d entries, counter says %d, table has %d candidates", n, t.candidates, want)
	}
}

// TestRetireQueueMemoryBounded is the regression test for the retention
// queue's backing-array leak: popping with retire = retire[1:] kept the
// burst-peak array pinned forever (the slice could never reuse its front,
// and with enough spare capacity never reallocated). After a large
// retirement burst fully drains, the queue must hold only a small backing
// array.
func TestRetireQueueMemoryBounded(t *testing.T) {
	const (
		rip   = 100
		burst = 1 << 16
	)
	// Fill with a RIP too long to purge anything mid-burst, then shorten it
	// for the drain phase.
	tbl := newHistTable(2, 0, policy.Tick(1<<40))
	for i := 0; i < burst; i++ {
		p := policy.PageID(i)
		h := tbl.admit(p, tbl.tick())
		tbl.retireResident(h)
	}
	if got := tbl.retireLen(); got != burst {
		t.Fatalf("retire queue holds %d entries after burst, want %d", got, burst)
	}
	peak := cap(tbl.retire)
	tbl.rip = rip
	// Run the clock forward so the retention demon drains the whole queue.
	for i := 0; tbl.retireLen() > 0; i++ {
		tbl.tick()
		if i > burst+rip+1 {
			t.Fatal("retention demon did not drain the queue")
		}
	}
	if tbl.historyLen() != 0 {
		t.Errorf("%d history blocks survive a full drain", tbl.historyLen())
	}
	if c := cap(tbl.retire); c >= peak/4 {
		t.Errorf("drained retire queue still pins cap %d of peak %d", c, peak)
	}
}

// TestRetireQueueBoundedUnderSteadyChurn drives a long steady-state
// admit/evict churn: the backing array must stay proportional to the live
// window (bounded by the Retained Information Period), not grow with the
// total number of retirements.
func TestRetireQueueBoundedUnderSteadyChurn(t *testing.T) {
	const rip = 64
	tbl := newHistTable(1, 0, rip)
	maxCap := 0
	for i := 0; i < 1<<16; i++ {
		p := policy.PageID(i)
		h := tbl.admit(p, tbl.tick())
		tbl.retireResident(h)
		if c := cap(tbl.retire); c > maxCap {
			maxCap = c
		}
	}
	// Live entries never exceed ~rip+1; allow compaction hysteresis room.
	if limit := 16 * (rip + retireCompactMin); maxCap > limit {
		t.Errorf("retire queue cap peaked at %d under steady churn, want <= %d", maxCap, limit)
	}
}

// TestDropOldestRetainedCompacts drains a retirement burst through the
// budgeted policy's dropOldestRetained path, which must release the
// backing array just like the demon's purge.
func TestDropOldestRetainedCompacts(t *testing.T) {
	const burst = 1 << 14
	tbl := newHistTable(2, 0, 1<<40) // RIP so large nothing purges on tick
	for i := 0; i < burst; i++ {
		p := policy.PageID(i)
		h := tbl.admit(p, tbl.tick())
		tbl.retireResident(h)
	}
	peak := cap(tbl.retire)
	drops := 0
	for tbl.dropOldestRetained() {
		drops++
	}
	if drops != burst {
		t.Errorf("dropOldestRetained dropped %d blocks, want %d", drops, burst)
	}
	if tbl.retireLen() != 0 {
		t.Errorf("queue holds %d entries after full drain", tbl.retireLen())
	}
	if c := cap(tbl.retire); c >= peak/4 {
		t.Errorf("drained retire queue still pins cap %d of peak %d", c, peak)
	}
}

// TestRetireQueueStaleEntriesStillSkipped re-checks the lazy-validation
// protocol through the new queue plumbing: a page readmitted after
// retirement must not be purged by its stale queue entry, and an aged-out
// entry waits for the ones retired ahead of it.
func TestRetireQueueStaleEntriesStillSkipped(t *testing.T) {
	const rip = 10
	tbl := newHistTable(1, 0, rip)
	h := tbl.admit(1, tbl.tick())
	tbl.retireResident(h)
	// Readmit before the entry expires: the queued entry goes stale.
	tbl.admit(1, tbl.tick())
	for i := 0; i < 4*rip; i++ {
		tbl.tick()
	}
	if hh, ok := tbl.pages[1]; !ok || !hh.resident {
		t.Error("resident page purged through its stale retirement entry")
	}

	// The queue is FIFO by retirement, not sorted by LAST. With K = 2 and
	// RIP 5, X (LAST 4) retires ahead of Y (LAST 3): Y is held at clock 9,
	// age 6 > RIP, behind X at age 5, and both go at clock 10.
	const x, y = policy.PageID(2), policy.PageID(3)
	tbl = newHistTable(2, 0, 5)
	tbl.tick()
	tbl.tick()
	hy := tbl.admit(y, tbl.tick())
	hx := tbl.admit(x, tbl.tick())
	tbl.retireResident(hx)
	tbl.retireResident(hy)
	for tbl.clock < 9 {
		tbl.tick()
	}
	if _, held := tbl.pages[y]; !held {
		t.Error("Y purged at clock 9 from behind X, which is still inside the RIP")
	}
	tbl.tick()
	if n := tbl.historyLen(); n != 0 {
		t.Errorf("%d blocks held at clock 10, want X and Y both purged", n)
	}
}
