package bufferpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// frameAccounting counts free-list frames and table-reachable frames. On a
// quiescent pool their sum must equal NumFrames: no frame leaked, none
// double-freed (a double free would push free above NumFrames).
func frameAccounting(p *Pool) (free, tabled int) {
	p.freeMu.Lock()
	free = len(p.free)
	p.freeMu.Unlock()
	if p.closed.Load() {
		// Close claimed every unpinned resident frame out of the table
		// (releaseFrames), and nothing unclaims it: those are free too.
		for i := range p.frames {
			if p.frames[i].pv.Load()&frameClaimBit != 0 {
				free++
			}
		}
	}
	p.tableMu.RLock()
	tabled = len(p.table)
	p.tableMu.RUnlock()
	return free, tabled
}

func checkFrameInvariant(t *testing.T, p *Pool) {
	t.Helper()
	free, tabled := frameAccounting(p)
	if free+tabled != p.NumFrames() {
		t.Errorf("frame accounting: %d free + %d tabled != %d frames", free, tabled, p.NumFrames())
	}
}

// allocPages allocates n disk pages, each stamped with a recognisable
// byte, and returns their ids.
func allocPages(t *testing.T, d storagetest.Injector, n int) []policy.PageID {
	t.Helper()
	ids := make([]policy.PageID, n)
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		ids[i] = storagetest.MustAllocate(d)
		buf[0] = byte(i + 1)
		if err := d.Write(context.Background(), ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestWriteBackFaultSkipsVictim is the headline hardening test: a dirty
// victim whose write-back fails must not fail the unrelated fetch — the
// pool quarantines the poisoned page and evicts the next victim instead.
func TestWriteBackFaultSkipsVictim(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 3)
	a, b, c := ids[0], ids[1], ids[2]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))

	pg, err := p.FetchCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("precious"))
	pg.Unpin(true) // dirty: a is the LRU victim and needs write-back
	pg, err = p.FetchCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false) // clean second choice

	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Pages: []policy.PageID{a}}))

	// The fetch of c must succeed by skipping poisoned a and evicting b.
	pg, err = p.FetchCtx(context.Background(), c)
	if err != nil {
		t.Fatalf("fetch failed because an unrelated victim's write-back failed: %v", err)
	}
	pg.Unpin(false)
	if !p.Resident(a) {
		t.Error("poisoned dirty victim lost residency (its data exists only in memory)")
	}
	if p.Resident(b) {
		t.Error("clean second victim not evicted")
	}
	s := p.Stats()
	if s.WriteErrors != 1 {
		t.Errorf("WriteErrors = %d, want 1", s.WriteErrors)
	}
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1 (b only)", s.Evictions)
	}
	if got := p.Quarantined(); got != 1 {
		t.Errorf("Quarantined = %d, want 1", got)
	}
	checkFrameInvariant(t, p)

	// The fault clears; the quarantined page flushes and leaves quarantine,
	// with its in-memory modification intact on disk.
	d.SetPlan(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := p.Quarantined(); got != 0 {
		t.Errorf("Quarantined = %d after successful flush, want 0", got)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:8]) != "precious" {
		t.Errorf("committed update lost across the fault: %q", buf[:8])
	}
}

// TestWriteBackFaultBoundedAttempts: when every evictable victim is dirty
// and poisoned, obtainFrame must give up with the joined write-back errors
// rather than loop, and the pool must stay fully intact.
func TestWriteBackFaultBoundedAttempts(t *testing.T) {
	const frames = 6
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, frames+1)
	p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))
	for _, id := range ids[:frames] {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0]++
		pg.Unpin(true)
	}
	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite}))

	_, err := p.FetchCtx(context.Background(), ids[frames])
	if err == nil {
		t.Fatal("fetch succeeded with every write-back poisoned")
	}
	if !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Errorf("error %v does not unwrap to the injected fault", err)
	}
	if errors.Is(err, ErrNoFreeFrame) {
		t.Errorf("write-back failure misreported as ErrNoFreeFrame: %v", err)
	}
	s := p.Stats()
	if s.WriteErrors != maxWriteBackFailures {
		t.Errorf("WriteErrors = %d, want the sweep bound %d", s.WriteErrors, maxWriteBackFailures)
	}
	// Every page must still be resident — nothing evicted, nothing leaked.
	for _, id := range ids[:frames] {
		if !p.Resident(id) {
			t.Errorf("page %d lost residency during the failed sweep", id)
		}
	}
	checkFrameInvariant(t, p)

	// Once the faults clear, the same fetch succeeds and quarantine drains
	// as retried write-backs go through.
	d.SetPlan(nil)
	pg, err := p.FetchCtx(context.Background(), ids[frames])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := p.Quarantined(); got != 0 {
		t.Errorf("Quarantined = %d after recovery, want 0", got)
	}
	checkFrameInvariant(t, p)
}

// TestQuarantineRetriedOnNextSweep: a transiently poisoned victim fails
// one sweep and is written back successfully by the next.
func TestQuarantineRetriedOnNextSweep(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	a, b := ids[0], ids[1]
	p := New(d, 1, core.NewSyncReplacer(2, core.Options{}))
	pg, err := p.FetchCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("survives"))
	pg.Unpin(true)

	// One transient write fault: the first sweep fails, the retry works.
	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Pages: []policy.PageID{a}, Count: 1}))
	if _, err := p.FetchCtx(context.Background(), b); err == nil {
		t.Fatal("single-frame fetch succeeded though its only victim was poisoned")
	}
	if got := p.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	pg, err = p.FetchCtx(context.Background(), b) // next sweep retries a's write-back, which now succeeds
	if err != nil {
		t.Fatalf("retry sweep failed: %v", err)
	}
	pg.Unpin(false)
	if got := p.Quarantined(); got != 0 {
		t.Errorf("Quarantined = %d after successful retry, want 0", got)
	}
	s := p.Stats()
	if s.WriteErrors != 1 || s.WriteBacks != 1 {
		t.Errorf("WriteErrors = %d, WriteBacks = %d, want 1 and 1", s.WriteErrors, s.WriteBacks)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:8]) != "survives" {
		t.Errorf("update lost across transient fault: %q", buf[:8])
	}
	checkFrameInvariant(t, p)
}

// TestQuarantineBitLeavesWithTheWriteBack: quarantine is a bit on the
// frame beside one count. A page quarantined by a failed flush and then
// written back by an eviction leaves Quarantined() at 0, and the frame it
// leaves starts its next page unquarantined.
func TestQuarantineBitLeavesWithTheWriteBack(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	a, b := ids[0], ids[1]
	p := New(d, 1, core.NewSyncReplacer(2, core.Options{}))
	pg, err := p.FetchCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data()[0]++
	pg.Unpin(true)

	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Pages: []policy.PageID{a}, Count: 1}))
	if err := p.FlushAll(); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Fatalf("faulted flush = %v, want the injected fault", err)
	}
	f := p.frameFor(a)
	if got := p.Quarantined(); got != 1 || !f.quarantined.Load() {
		t.Fatalf("after the failed flush: Quarantined = %d, bit %v; want 1 and set", got, f.quarantined.Load())
	}
	// The fault is spent: fetching b evicts a, and its write-back succeeds.
	pg, err = p.FetchCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unpin(false)
	if got := p.Quarantined(); got != 0 {
		t.Errorf("Quarantined = %d after a's write-back, want 0", got)
	}
	if p.frameFor(b) != f {
		t.Fatal("the one-frame pool did not reuse a's frame for b")
	}
	if f.quarantined.Load() {
		t.Error("the reused frame starts b quarantined")
	}
	if s := p.Stats(); s.WriteErrors != 1 || s.WriteBacks != 1 {
		t.Errorf("WriteErrors = %d, WriteBacks = %d, want 1 and 1", s.WriteErrors, s.WriteBacks)
	}
}

// TestFlushAllAggregatesErrors: FlushAll must visit every page,
// flushing what it can and returning the failures joined, instead of
// aborting on the first error.
func TestFlushAllAggregatesErrors(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 3)
	a, b, c := ids[0], ids[1], ids[2]
	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	for i, id := range ids {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[1] = byte(0xA0 + i)
		pg.Unpin(true)
	}
	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Pages: []policy.PageID{a, b}}))

	err := p.FlushAll()
	if err == nil {
		t.Fatal("FlushAll reported success with two poisoned pages")
	}
	if !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Errorf("joined error %v does not unwrap to the injected fault", err)
	}
	if s := p.Stats(); s.WriteErrors != 2 {
		t.Errorf("WriteErrors = %d, want 2 (every dirty page attempted)", s.WriteErrors)
	}
	// The unpoisoned page was flushed despite the earlier failures.
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), c, buf); err != nil {
		t.Fatal(err)
	}
	if buf[1] != 0xA2 {
		t.Error("FlushAll skipped a healthy page after an earlier failure")
	}
	// Failed pages stayed dirty: a retry after the fault clears loses nothing.
	d.SetPlan(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i, id := range []policy.PageID{a, b} {
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[1] != byte(0xA0+i) {
			t.Errorf("page %d not persisted by the retry flush", id)
		}
	}
}

// TestFetchReadFaultAccounting: a failed miss read counts as a miss and a
// read error, returns its frame, and the next fetch recovers.
func TestFetchReadFaultAccounting(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpRead, Count: 1}))

	if _, err := p.FetchCtx(context.Background(), ids[0]); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Fatalf("fetch under read fault: %v", err)
	}
	s := p.Stats()
	if s.Misses != 1 || s.ReadErrors != 1 || s.Hits != 0 {
		t.Errorf("stats %+v, want 1 miss, 1 read error", s)
	}
	if free, tabled := frameAccounting(p); free != p.NumFrames() || tabled != 0 {
		t.Errorf("failed load leaked a frame: %d free, %d tabled", free, tabled)
	}
	// The fault was transient; the page is fetchable again.
	pg, err := p.FetchCtx(context.Background(), ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if pg.Data()[0] != 1 {
		t.Error("recovered fetch returned wrong data")
	}
	pg.Unpin(false)
	if s := p.Stats(); s.Misses != 2 || s.ReadErrors != 1 {
		t.Errorf("stats after recovery %+v, want 2 misses, 1 read error", s)
	}
}

// TestCoalescedWaitersReadFault parks a doomed miss read behind the Delay
// gate, piles coalescing waiters onto the in-flight frame, then lets the
// read fail: every waiter must observe the error, each counts one miss and
// one coalesce, the read error is counted exactly once, and the last
// participant out frees the frame exactly once.
func TestCoalescedWaitersReadFault(t *testing.T) {
	var gate atomic.Bool
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	d := newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		if gate.Load() {
			once.Do(func() { close(blocked) })
			<-release
		}
	}})
	ids := allocPages(t, d, 1)
	id := ids[0]
	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpRead, Count: 1}))
	gate.Store(true)

	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	const waiters = 6
	var wg sync.WaitGroup
	var failures atomic.Uint64
	fetch := func() {
		defer wg.Done()
		if _, err := p.FetchCtx(context.Background(), id); errors.Is(err, storagetest.ErrInjectedFault) {
			failures.Add(1)
		} else {
			t.Errorf("fetch of doomed page: %v, want injected fault", err)
		}
	}
	wg.Add(1)
	go fetch() // the loader, parked inside its doomed disk read
	<-blocked
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go fetch()
	}
	for waitersIn := 0; waitersIn < waiters; {
		waitersIn = int(p.frameFor(id).pins()) - 1
	}
	gate.Store(false)
	close(release)
	wg.Wait()

	if got := failures.Load(); got != waiters+1 {
		t.Errorf("%d fetchers saw the injected fault, want %d", got, waiters+1)
	}
	s := p.Stats()
	if s.Misses != waiters+1 || s.Coalesced != waiters || s.ReadErrors != 1 || s.Hits != 0 {
		t.Errorf("stats %+v, want %d misses, %d coalesced, 1 read error", s, waiters+1, waiters)
	}
	if free, tabled := frameAccounting(p); free != p.NumFrames() || tabled != 0 {
		t.Errorf("frame freed %d times across %d participants: %d free, %d tabled",
			p.NumFrames()-tabled, waiters+1, free, tabled)
	}
	// Recovery: the fault is exhausted, so the page loads cleanly.
	pg, err := p.FetchCtx(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if s := p.Stats(); s.Misses != waiters+2 {
		t.Errorf("recovery fetch not counted: %+v", s)
	}
}

// TestFlushPageFaultKeepsDirty: a failed flush by id leaves the page dirty
// and resident so nothing is lost, and counts one write error.
func TestFlushPageFaultKeepsDirty(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	id := ids[0]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	pg, err := p.FetchCtx(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("dirtydata"))
	pg.Unpin(true)

	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Count: 1}))
	if err := flushPage(context.Background(), p, id); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Fatalf("flush under write fault: %v", err)
	}
	if s := p.Stats(); s.WriteErrors != 1 || s.WriteBacks != 0 {
		t.Errorf("stats %+v, want 1 write error, 0 write-backs", s)
	}
	// Still dirty: the retry persists the data.
	if err := flushPage(context.Background(), p, id); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:9]) != "dirtydata" {
		t.Errorf("flushed page holds %q", buf[:9])
	}
	if s := p.Stats(); s.WriteBacks != 1 {
		t.Errorf("retry flush not counted: %+v", s)
	}
}

// TestSerialWriteBackFaultRestoresVictim: the Serial reference pool keeps
// its single-attempt error policy, but a failed write-back must reinstate
// the victim in the replacer — losing the entry made the page permanently
// unevictable (a frame leak).
func TestSerialWriteBackFaultRestoresVictim(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	a, b := ids[0], ids[1]
	p := NewSerial(d, 1, core.NewReplacer(2, core.Options{}))
	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data()[0]++
	pg.Unpin(true)

	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Count: 1}))
	if _, err := p.Fetch(b); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Fatalf("Serial fetch with poisoned victim: %v", err)
	}
	if s := p.Stats(); s.WriteErrors != 1 {
		t.Errorf("WriteErrors = %d, want 1", s.WriteErrors)
	}
	// The victim must be choosable again once the fault clears.
	pg, err = p.Fetch(b)
	if err != nil {
		t.Fatalf("Serial pool wedged after a transient write fault: %v", err)
	}
	pg.Unpin(false)
	if p.Resident(a) {
		t.Error("old victim still resident in a 1-frame pool")
	}
}
