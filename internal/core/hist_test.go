package core

import (
	"testing"
	"unsafe"

	"repro/internal/policy"
)

// TestHistBlockSize pins the HIST block at 80 bytes, an allocator size
// class. It was 64 before the ∞ list: the list links add 16 bytes to every
// block, but a block filed in the list no longer holds a 48-byte tree node,
// and most candidates a load or a cold miss makes are filed there. The
// filed key is still two ticks, not a whole vkey.
func TestHistBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(hist{}); got > 80 {
		t.Errorf("hist block is %d bytes, want at most 80", got)
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

// checkIndex syncs the table and asserts what sync promises: every
// resident candidate has exactly one entry, under its current key and
// recorded as filed under it — in the ∞ list iff its key is at infinite
// distance (or K = 1), in the tree otherwise; the list is linked both ways
// in (HIST(p,1), page) order; the dirty list is empty; and the list and
// the tree together are as large as the candidate counter says. Equal
// sizes plus every candidate's entry present leaves no room for an orphan.
func checkIndex(tb testing.TB, t *histTable) {
	tb.Helper()
	t.sync()
	if len(t.dirty) != 0 {
		tb.Fatalf("dirty list holds %d blocks after sync", len(t.dirty))
	}
	for h := t.lru.next; h != &t.lru; h = h.next {
		if h.next.prev != h || h.prev.next != h {
			tb.Fatalf("∞ list links around page %d are broken", h.page)
		}
		if t.pages[h.page] != h {
			tb.Fatalf("∞ list holds a block of page %d the table does not", h.page)
		}
		if h.prev != &t.lru && !lruLess(h.prev, h) {
			tb.Fatalf("∞ list out of order: page %d (HIST1 %d) before page %d (HIST1 %d)",
				h.prev.page, h.prev.filedHist1, h.page, h.filedHist1)
		}
	}
	want := 0
	for p, h := range t.pages {
		if h.page != p {
			tb.Fatalf("block of page %d says it is page %d", p, h.page)
		}
		if h.dirty {
			tb.Fatalf("page %d still dirty after sync", p)
		}
		if h.candidate && !h.resident {
			tb.Fatalf("page %d is a candidate but not resident", p)
		}
		if h.candidate {
			want++
		}
		inList := h.prev != nil
		_, inTree := t.index.Get(h.key())
		if inList && inTree || (inList || inTree) != h.candidate {
			tb.Fatalf("page %d: in list %v, in tree %v, candidate %v", p, inList, inTree, h.candidate)
		}
		if h.candidate && inList != t.listed(h.key()) {
			tb.Fatalf("page %d with key %+v filed in the list = %v, want %v", p, h.key(), inList, !inList)
		}
		if h.filed != h.candidate || (h.filed && h.filedKey() != h.key()) {
			tb.Fatalf("page %d: filed=%v as %+v, candidate=%v with key %+v", p, h.filed, h.filedKey(), h.candidate, h.key())
		}
	}
	if n := listLen(t) + t.index.Len(); n != want || t.candidates != want {
		tb.Fatalf("list and tree hold %d entries, counter says %d, table has %d candidates", n, t.candidates, want)
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
