package bufferpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// gatedDisk returns a manager whose reads and writes park on gate while
// armed, signalling entry on entered — the scaffolding for freezing a load
// mid-flight so a coalesced waiter can be cancelled deterministically.
func gatedDisk() (d *storage.Faulty, arm *atomic.Bool, entered chan struct{}, gate chan struct{}) {
	arm = &atomic.Bool{}
	entered = make(chan struct{}, 16)
	gate = make(chan struct{})
	d = newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		if arm.Load() {
			entered <- struct{}{}
			<-gate
		}
	}})
	return d, arm, entered, gate
}

func TestFetchExpiredContext(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.FetchCtx(ctx, ids[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("FetchCtx on cancelled ctx: %v, want context.Canceled", err)
	}
	if _, err := p.NewPageCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewPageCtx on cancelled ctx: %v, want context.Canceled", err)
	}
	checkFrameInvariant(t, p)
	s := p.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Errorf("pre-flight rejection charged counters: %+v", s)
	}
}

// TestCoalescedWaiterAbandonSuccessfulLoad freezes a load mid-disk-read,
// parks a second fetch on the in-flight frame, expires its deadline, then
// lets the load finish. The waiter must return promptly with its context
// error; the loader must still install the page; and the books must close
// exactly: no pin leak, no double free, miss/coalesced counters intact.
func TestCoalescedWaiterAbandonSuccessfulLoad(t *testing.T) {
	leakcheck.Check(t)
	d, arm, entered, gate := gatedDisk()
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))

	arm.Store(true)
	loaded := make(chan error, 1)
	go func() {
		pg, err := p.Fetch(a)
		if err == nil {
			pg.Unpin(false)
		}
		loaded <- err
	}()
	<-entered // the loader is parked inside the disk read

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.FetchCtx(ctx, a)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned waiter returned %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("abandoned waiter took %v to return", waited)
	}

	arm.Store(false)
	close(gate) // release the loader
	if err := <-loaded; err != nil {
		t.Fatalf("loader failed: %v", err)
	}
	if !p.Resident(a) {
		t.Fatal("loader did not install the page after the waiter abandoned")
	}
	checkFrameInvariant(t, p)
	s := p.Stats()
	// Loader: one miss. Abandoned waiter: one miss, one coalesced.
	if s.Misses != 2 || s.Coalesced != 1 || s.Hits != 0 {
		t.Errorf("stats after abandon = %+v, want Misses 2, Coalesced 1", s)
	}
	if f := p.frameFor(a); f != nil && f.pins() != 0 {
		t.Errorf("pin leak: page %d has %d pins after everyone released", a, f.pins())
	}
	// The page must still be usable and evictable: a hit works...
	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if got := p.Stats().Hits; got != 1 {
		t.Errorf("post-abandon fetch was not a hit (Hits = %d)", got)
	}
}

// TestCoalescedWaiterAbandonFailedLoad is the other arm: the frozen load
// ends in a disk fault. Whichever participant drops the last pin must
// recycle the frame exactly once.
func TestCoalescedWaiterAbandonFailedLoad(t *testing.T) {
	leakcheck.Check(t)
	d, arm, entered, gate := gatedDisk()
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Pages: []policy.PageID{a}}))

	arm.Store(true)
	loaded := make(chan error, 1)
	go func() {
		_, err := p.Fetch(a)
		loaded <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.FetchCtx(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned waiter returned %v, want context.DeadlineExceeded", err)
	}

	arm.Store(false)
	close(gate)
	if err := <-loaded; !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("loader error = %v, want injected fault", err)
	}
	if p.Resident(a) {
		t.Fatal("failed load left the page resident")
	}
	checkFrameInvariant(t, p)
	s := p.Stats()
	if s.ReadErrors != 1 {
		t.Errorf("ReadErrors = %d, want 1 (counted once, by the loader)", s.ReadErrors)
	}
	if s.Misses != 2 || s.Coalesced != 1 {
		t.Errorf("stats after failed abandon = %+v, want Misses 2, Coalesced 1", s)
	}
	// The failure must be transient to the pool: healed disk, page loads.
	d.SetFaults(nil)
	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
}

// TestAbandonLastPinRestoresEvictability drives the case where the
// abandoning waiter is the LAST pin out of an already-published frame:
// the page must be left a victim candidate, or the frame could never be
// evicted again.
func TestAbandonLastPinRestoresEvictability(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	a, b := ids[0], ids[1]
	p := New(d, 1, core.NewSyncReplacer(2, core.Options{}))

	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	sh := p.shardOf(a)
	f := p.frameFor(a)
	f.pinAdd(1)     // the waiter's coalesced pin, held across the load
	pg.Unpin(false) // the loader's caller is done; the waiter still pins
	p.abandonPin(sh, a, f)

	// One frame, and a is the only candidate: this fetch succeeds only if
	// the abandon marked a evictable.
	pg, err = p.Fetch(b)
	if err != nil {
		t.Fatalf("page stuck unevictable after last-pin abandon: %v", err)
	}
	pg.Unpin(false)
	checkFrameInvariant(t, p)
}

// TestOneDiskAttemptPerOperation: every logical read or write is exactly one
// disk attempt. A faulted read fails its fetch at once and a faulted
// write-back quarantines its page at once; the disk's fault ledger equals
// the pool's error ledger after every step.
func TestOneDiskAttemptPerOperation(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	a := allocPages(t, d, 1)[0]
	p := NewWithConfig(d, 2, core.NewSyncReplacer(2, core.Options{}), Config{})
	step := func(what string, before storage.Stats, wantReads, wantWrites uint64) {
		t.Helper()
		ds, s := d.Stats(), p.Stats()
		reads := ds.Reads + ds.ReadFaults - before.Reads - before.ReadFaults
		writes := ds.Writes + ds.WriteFaults - before.Writes - before.WriteFaults
		if reads != wantReads || writes != wantWrites {
			t.Errorf("%s: %d read and %d write attempts, want %d and %d", what, reads, writes, wantReads, wantWrites)
		}
		if ds.ReadFaults != s.ReadErrors || ds.WriteFaults != s.WriteErrors {
			t.Errorf("%s: disk faults %d/%d, pool errors %d/%d (read/write); want equal",
				what, ds.ReadFaults, ds.WriteFaults, s.ReadErrors, s.WriteErrors)
		}
	}

	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Pages: []policy.PageID{a}, Count: 2}))
	for i := 1; i <= 2; i++ {
		before := d.Stats()
		if _, err := p.Fetch(a); !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("fetch %d = %v, want the injected fault", i, err)
		}
		step(fmt.Sprintf("failed fetch %d", i), before, 1, 0)
	}
	before := d.Stats()
	pg, err := p.Fetch(a)
	if err != nil || pg.Data()[0] != 1 {
		t.Fatalf("third fetch = %v, want page a's image", err)
	}
	pg.Unpin(true)
	step("third fetch", before, 1, 0)

	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{a}, Count: 1}))
	before = d.Stats()
	if err := p.FlushAll(); !errors.Is(err, storage.ErrInjectedFault) || p.Quarantined() != 1 {
		t.Fatalf("faulted flush = %v with %d quarantined, want the injected fault and 1", err, p.Quarantined())
	}
	step("faulted flush", before, 0, 1)
	before = d.Stats()
	if err := p.FlushAll(); err != nil || p.Quarantined() != 0 {
		t.Fatalf("second flush = %v with %d quarantined, want nil and 0", err, p.Quarantined())
	}
	step("second flush", before, 0, 1)
	checkFrameInvariant(t, p)
}

// TestBreakerFailFastAndRecovery exercises the breaker through the pool:
// sustained read faults open the circuit, after which misses and
// write-backs of any page fail fast with ErrDiskUnavailable (no disk
// attempt; the refused write-back is quarantined) while hits keep serving;
// healing the disk lets half-open probes close the circuit.
func TestBreakerFailFastAndRecovery(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 3)
	a, b, c := ids[0], ids[1], ids[2]
	p := NewWithConfig(d, 4, core.NewSyncReplacer(2, core.Options{}), Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 30 * time.Millisecond, Probes: 1},
	})

	// b resides before the disk breaks: its hits must survive the outage.
	// c resides dirty.
	pg, err := p.Fetch(b)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if pg, err = p.Fetch(c); err != nil {
		t.Fatal(err)
	}
	pg.Unpin(true)

	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead}))
	for i := 0; i < 2; i++ {
		if _, err := p.Fetch(a); !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("fetch %d error = %v, want injected fault", i, err)
		}
	}
	s := p.Stats()
	if s.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d after %d consecutive failures, want 1", s.BreakerTrips, 2)
	}

	// Open circuit: reads and write-backs fail fast, with no disk attempt.
	if !p.BreakerOpen() {
		t.Error("BreakerOpen = false after the trip")
	}
	faultsBefore, writesBefore := d.Stats().ReadFaults, d.Stats().Writes
	_, err = p.Fetch(a)
	if !errors.Is(err, ErrDiskUnavailable) {
		t.Fatalf("fetch while open = %v, want ErrDiskUnavailable", err)
	}
	if err := flushPage(context.Background(), p, c); !errors.Is(err, ErrDiskUnavailable) {
		t.Errorf("flush on the open circuit = %v, want ErrDiskUnavailable", err)
	}
	if ds := d.Stats(); ds.ReadFaults != faultsBefore || ds.Writes != writesBefore {
		t.Errorf("open breaker still reached the disk (%d -> %d faults, %d -> %d writes)",
			faultsBefore, ds.ReadFaults, writesBefore, ds.Writes)
	}
	s = p.Stats()
	if s.ReadsRejected != 1 || s.WritesRejected != 1 || p.Quarantined() != 1 {
		t.Errorf("ReadsRejected %d, WritesRejected %d, quarantined %d; want 1/1/1",
			s.ReadsRejected, s.WritesRejected, p.Quarantined())
	}
	// Hits are unaffected by the open circuit.
	pg, err = p.Fetch(b)
	if err != nil {
		t.Fatalf("buffer hit failed while the breaker is open: %v", err)
	}
	pg.Unpin(false)

	// Heal, wait out the cooldown: the next miss is the half-open probe and
	// closes the circuit (Probes: 1).
	d.SetFaults(nil)
	time.Sleep(35 * time.Millisecond)
	pg, err = p.Fetch(a)
	if err != nil {
		t.Fatalf("probe fetch after heal failed: %v", err)
	}
	if pg.Data()[0] != 1 {
		t.Fatal("probe fetch returned wrong data")
	}
	pg.Unpin(false)
	if err := flushPage(context.Background(), p, c); err != nil || p.Quarantined() != 0 {
		t.Errorf("flush after recovery = %v with %d quarantined, want nil and 0", err, p.Quarantined())
	}
	s, ds := p.Stats(), d.Stats()
	if s.BreakerTrips != 1 || p.BreakerOpen() {
		t.Errorf("BreakerTrips %d, open %v after recovery; want 1 and closed", s.BreakerTrips, p.BreakerOpen())
	}
	if ds.ReadFaults != s.ReadErrors {
		t.Errorf("fault ledger out of balance: disk %d faults, pool %d errors", ds.ReadFaults, s.ReadErrors)
	}
	checkFrameInvariant(t, p)
}

// TestPoolCloseIdempotentAndFenced: Close flushes dirty pages and fences
// the API behind ErrClosed; a second Close replays the first result
// without re-flushing.
func TestPoolCloseIdempotentAndFenced(t *testing.T) {
	leakcheck.Check(t)
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	p.Start()

	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("closing"))
	pg.Unpin(true)

	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:7]) != "closing" {
		t.Errorf("Close did not flush: disk has %q", buf[:7])
	}

	if _, err := p.Fetch(a); !errors.Is(err, ErrClosed) {
		t.Errorf("Fetch after Close = %v, want ErrClosed", err)
	}
	if _, err := p.NewPage(); !errors.Is(err, ErrClosed) {
		t.Errorf("NewPage after Close = %v, want ErrClosed", err)
	}
	if err := p.FlushAll(); !errors.Is(err, ErrClosed) {
		t.Errorf("FlushAll after Close = %v, want ErrClosed", err)
	}
	writesBefore := d.Stats().Writes
	if _, err := p.AllocatePage(); !errors.Is(err, ErrClosed) {
		t.Errorf("AllocatePage after Close = %v, want ErrClosed", err)
	}
	if err := p.WriteNewPage(context.Background(), a, make([]byte, storage.PageSize)); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteNewPage after Close = %v, want ErrClosed", err)
	}
	if n := p.ScrubSweep(context.Background(), 8); n != 0 {
		t.Errorf("ScrubSweep after Close examined %d pages, want 0", n)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if got := d.Stats().Writes; got != writesBefore {
		t.Errorf("WriteNewPage or a second Close wrote after Close (%d -> %d writes)", writesBefore, got)
	}
	// Start after Close must not revive the pool.
	p.Start()
	if err := p.FlushAll(); !errors.Is(err, ErrClosed) {
		t.Errorf("pool revived by Start after Close: %v", err)
	}
}

// TestPageFlushCtxWhilePinned: a pinned handle's FlushCtx persists the
// holder's own modification — which no Unpin(true) has announced yet — and
// leaves the page clean and still pinned, so the later Unpin(false) and
// eviction cost no second write. A failed flush leaves the page dirty for
// a retry. This is the primitive the durable update path holds its pin
// across; flushing by id after unpinning loses the page to an eviction.
func TestPageFlushCtxWhilePinned(t *testing.T) {
	p, d := newPool(t, 2, 2)
	ids := allocPages(t, d, 3)
	ctx := context.Background()

	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pg.Data()[100] = 0x42
	if err := pg.FlushCtx(ctx); err != nil {
		t.Fatalf("FlushCtx: %v", err)
	}
	onDisk := make([]byte, storage.PageSize)
	if err := d.Read(ctx, ids[0], onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk[100] != 0x42 {
		t.Fatal("pinned flush did not persist the holder's modification")
	}
	if got := p.Stats().WriteBacks; got != 1 {
		t.Fatalf("WriteBacks = %d after one pinned flush, want 1", got)
	}

	// A failing backend: the error surfaces and the page stays dirty.
	pg.Data()[101] = 0x43
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite}))
	if err := pg.FlushCtx(ctx); err == nil {
		t.Fatal("FlushCtx succeeded against a failing disk")
	}
	d.SetFaults(nil)
	pg.Unpin(false)
	if err := flushPage(context.Background(), p, ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().WriteBacks; got != 2 {
		t.Fatalf("WriteBacks = %d after the retried flush, want 2 (failed flush must leave the page dirty)", got)
	}

	// Clean again: churning it out of the 2-frame pool writes nothing more.
	for _, id := range ids[1:] {
		other, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		other.Unpin(false)
	}
	if p.Resident(ids[0]) {
		t.Fatal("page 0 still resident after churn")
	}
	if got := p.Stats().WriteBacks; got != 2 {
		t.Errorf("WriteBacks = %d after evicting a flushed page, want 2", got)
	}
	checkFrameInvariant(t, p)
}

// TestJoinFailedLoad parks a load inside a disk read that will fail and has
// other callers join it through the shared residency state machine
// (pinEntry). Maintenance callers — flushResident and FlushAllCtx — must
// report the page not resident, the frame must return to the free list
// exactly once whoever drops the last pin, and the join must leave no trace
// in the client-facing signals: Coalesced, the CoalesceWait histogram and
// pool_coalesce spans mean "client fetches parked behind a read". The
// client arm is the control: one joined FetchCtx is exactly one of each.
func TestJoinFailedLoad(t *testing.T) {
	sampled := obs.ContextWithTrace(context.Background(), obs.TraceContext{TraceID: 7, SpanID: 1, Sampled: true})
	for _, arm := range []struct {
		name    string
		joiners []func(p *Pool, a policy.PageID) error
		check   func(t *testing.T, errs []error)
		joined  uint64 // client fetches that coalesced
	}{
		{
			name: "maintenance",
			joiners: []func(*Pool, policy.PageID) error{
				func(p *Pool, a policy.PageID) error { return flushPage(sampled, p, a) },
				func(p *Pool, _ policy.PageID) error { return p.FlushAllCtx(sampled) },
			},
			check: func(t *testing.T, errs []error) {
				if !errors.Is(errs[0], errNotResident) {
					t.Errorf("flush by id over a failed load = %v, want errNotResident", errs[0])
				}
				if errs[1] != nil {
					t.Errorf("FlushAllCtx over a failed load = %v, want nil (nothing to flush)", errs[1])
				}
			},
		},
		{
			name: "client",
			joiners: []func(*Pool, policy.PageID) error{
				func(p *Pool, a policy.PageID) error { _, err := p.FetchCtx(sampled, a); return err },
			},
			check: func(t *testing.T, errs []error) {
				if !errors.Is(errs[0], storage.ErrInjectedFault) {
					t.Errorf("coalesced FetchCtx = %v, want the loader's injected fault", errs[0])
				}
			},
			joined: 1,
		},
	} {
		t.Run(arm.name, func(t *testing.T) {
			leakcheck.Check(t)
			d, armed, entered, gate := gatedDisk()
			a := allocPages(t, d, 1)[0]
			wait, spans := obs.NewHistogram(), obs.NewSpanRecorder("t", 64)
			p := NewWithConfig(d, 2, core.NewSyncReplacer(2, core.Options{}), Config{
				Metrics: Metrics{CoalesceWait: wait},
				Spans:   spans,
			})
			d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Pages: []policy.PageID{a}}))

			armed.Store(true)
			loaded := make(chan error, 1)
			go func() {
				_, err := p.Fetch(a)
				loaded <- err
			}()
			<-entered // the loader is parked inside the disk read

			results := make([]chan error, len(arm.joiners))
			for i, join := range arm.joiners {
				results[i] = make(chan error, 1)
				go func(i int, join func(*Pool, policy.PageID) error) { results[i] <- join(p, a) }(i, join)
			}
			// The loader holds pin 1; each joiner adds one once it is parked.
			for f := p.frameFor(a); int(f.pins()) < 1+len(arm.joiners); {
				runtime.Gosched()
			}
			armed.Store(false)
			close(gate)

			if err := <-loaded; !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("loader error = %v, want injected fault", err)
			}
			errs := make([]error, len(results))
			for i := range results {
				errs[i] = <-results[i]
			}
			arm.check(t, errs)
			if p.Resident(a) {
				t.Error("failed load left the page resident")
			}
			if free, tabled := frameAccounting(p); free != p.NumFrames() || tabled != 0 {
				t.Errorf("after the failed load: %d free + %d tabled, want %d + 0 (frame recycled exactly once)",
					free, tabled, p.NumFrames())
			}
			s := p.Stats()
			if s.Misses != 1+arm.joined || s.Coalesced != arm.joined || s.ReadErrors != 1 || s.Hits != 0 {
				t.Errorf("stats = %+v, want Misses %d, Coalesced %d, ReadErrors 1", s, 1+arm.joined, arm.joined)
			}
			if got := wait.Count(); got != arm.joined {
				t.Errorf("CoalesceWait count = %d, want %d", got, arm.joined)
			}
			var coalesceSpans uint64
			for _, rec := range spans.Snapshot() {
				if rec.Kind == obs.SpanPoolCoalesce {
					coalesceSpans++
				}
			}
			if coalesceSpans != arm.joined {
				t.Errorf("%d pool_coalesce spans recorded, want %d", coalesceSpans, arm.joined)
			}
		})
	}
}
