package core

import (
	"testing"
	"unsafe"

	"repro/internal/policy"
)

// TestHistBlockSize pins the HIST block at 64 bytes — one allocator size
// class, one cache line — which is why it records the filed key as two
// ticks instead of a whole vkey.
func TestHistBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(hist{}); got > 64 {
		t.Errorf("hist block is %d bytes, want at most 64", got)
	}
}

// checkIndex syncs the table and asserts what sync promises: the victim
// index holds exactly the resident candidates, each under its current key
// and recorded as filed under it, the dirty list is empty, and the
// candidate counter agrees. Equal sizes plus every candidate's key present
// leaves no room for an orphan entry.
func checkIndex(tb testing.TB, t *histTable) {
	tb.Helper()
	t.sync()
	if len(t.dirty) != 0 {
		tb.Fatalf("dirty list holds %d blocks after sync", len(t.dirty))
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
		if _, in := t.index.Get(h.key()); in != h.candidate {
			tb.Fatalf("page %d: in index under its key = %v, candidate = %v", p, in, h.candidate)
		}
		if h.filed != h.candidate || (h.filed && h.filedKey() != h.key()) {
			tb.Fatalf("page %d: filed=%v as %+v, candidate=%v with key %+v", p, h.filed, h.filedKey(), h.candidate, h.key())
		}
	}
	if t.index.Len() != want || t.candidates != want {
		tb.Fatalf("index holds %d entries, counter says %d, table has %d candidates", t.index.Len(), t.candidates, want)
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
