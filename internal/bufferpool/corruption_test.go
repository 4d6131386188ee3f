package bufferpool

import (
	"context"
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// newCorruptDisk builds a simulator wrapped in the injector and
// preloads n stamped pages through it (plan disarmed, so the preload is
// clean).
func newCorruptDisk(t *testing.T, n int) (storagetest.Injector, []policy.PageID) {
	t.Helper()
	c := storagetest.Wrap(sim.New(sim.ServiceModel{}))
	ids := make([]policy.PageID, n)
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		ids[i] = storagetest.MustAllocate(c)
		buf[0] = byte(i + 1)
		if err := c.Write(context.Background(), ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	return c, ids
}

// taint corrupts page id through the wrapper: arm a one-shot rule for it,
// rewrite its current content (the write passes through, then taints), and
// disarm again.
func taint(t *testing.T, c storagetest.Injector, id policy.PageID, unrepairable bool) {
	t.Helper()
	buf := make([]byte, storage.PageSize)
	if err := c.Read(context.Background(), id, buf); err != nil {
		t.Fatalf("taint pre-read of %d: %v", id, err)
	}
	c.SetPlan(storagetest.NewPlan(1, storagetest.Rule{
		Pages: []policy.PageID{id}, Count: 1, Corrupt: storage.CorruptChecksum, Unrepairable: unrepairable}))
	if err := c.Write(context.Background(), id, buf); err != nil {
		t.Fatalf("taint write of %d: %v", id, err)
	}
	c.SetPlan(nil)
}

func TestFetchReadRepair(t *testing.T) {
	c, ids := newCorruptDisk(t, 2)
	taint(t, c, ids[0], false)
	p := New(c, 2, core.NewSyncReplacer(2, core.Options{}))
	defer p.Close()

	pg, err := p.FetchCtx(context.Background(), ids[0])
	if err != nil {
		t.Fatalf("fetch of repairable-corrupt page: %v", err)
	}
	if pg.Data()[0] != 1 {
		t.Errorf("repaired page holds %d, want the preloaded stamp", pg.Data()[0])
	}
	pg.Unpin(false)

	s := p.Stats()
	if s.CorruptDetected != 1 || s.CorruptRepaired != 1 || s.CorruptQuarantined != 0 {
		t.Errorf("stats %+v, want detected=1 repaired=1 quarantined=0", s)
	}
	cs := c.Ledger()
	if cs.Injected != 1 || cs.Detected != 1 || cs.Cleared != 1 || cs.Tainted != 0 {
		t.Errorf("wrapper ledger %+v, want injected=detected=cleared=1 tainted=0", cs)
	}
}

func TestFetchUnrepairableQuarantinesAndFailsFast(t *testing.T) {
	c, ids := newCorruptDisk(t, 2)
	taint(t, c, ids[0], true)
	p := New(c, 2, core.NewSyncReplacer(2, core.Options{}))
	defer p.Close()

	if _, err := p.FetchCtx(context.Background(), ids[0]); !storage.IsCorrupt(err) {
		t.Fatalf("fetch of unrepairable page: %v, want corrupt", err)
	}
	if got := p.PoisonedPages(); len(got) != 1 || got[0] != ids[0] {
		t.Fatalf("poisoned set %v, want [%d]", got, ids[0])
	}

	// Further fetches fail fast: same error, no disk attempt, no fresh
	// detection.
	reads := c.Stats().Reads
	if _, err := p.FetchCtx(context.Background(), ids[0]); !storage.IsCorrupt(err) {
		t.Fatalf("second fetch: %v, want corrupt", err)
	}
	if got := c.Stats().Reads; got != reads {
		t.Errorf("poisoned fetch touched the disk (%d reads, was %d)", got, reads)
	}
	s := p.Stats()
	if s.CorruptDetected != 1 || s.CorruptQuarantined != 1 || s.CorruptRepaired != 0 {
		t.Errorf("stats %+v, want one detection, one quarantine", s)
	}
	if s.Misses != 2 || s.ReadErrors != 2 {
		t.Errorf("stats %+v, want both failed fetches counted as misses and read errors", s)
	}

	// The clean sibling is unaffected.
	pg, err := p.FetchCtx(context.Background(), ids[1])
	if err != nil {
		t.Fatalf("fetch of clean page: %v", err)
	}
	pg.Unpin(false)
}

// TestCorruptCountsAgainstBreaker: quarantined detections are permanent
// disk failures — enough of them open the circuit, so a disk rotting
// wholesale sheds load instead of burning every fetch on doomed reads.
func TestCorruptCountsAgainstBreaker(t *testing.T) {
	c, ids := newCorruptDisk(t, 3)
	rotA, rotB, probe := ids[0], ids[1], ids[2]
	taint(t, c, rotA, true)
	taint(t, c, rotB, true)

	p := NewWithConfig(c, 4, core.NewSyncReplacer(4, core.Options{}), Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute, Probes: 1},
	})
	defer p.Close()
	if _, err := p.FetchCtx(context.Background(), rotA); !storage.IsCorrupt(err) {
		t.Fatalf("fetch rotA: %v", err)
	}
	if _, err := p.FetchCtx(context.Background(), rotB); !storage.IsCorrupt(err) {
		t.Fatalf("fetch rotB: %v", err)
	}
	// Two permanent failures tripped the circuit: the clean page is now
	// refused locally, without a disk attempt.
	if _, err := p.FetchCtx(context.Background(), probe); !errors.Is(err, ErrDiskUnavailable) {
		t.Fatalf("fetch on a tripped circuit: %v, want ErrDiskUnavailable", err)
	}
	if s := p.Stats(); s.BreakerTrips == 0 || s.ReadsRejected == 0 {
		t.Errorf("stats %+v, want a breaker trip and a rejected read", s)
	}
}

// TestScrubberHealsInBackground: the scrubber finds corruption on pages no
// client has ever fetched and repairs it before a read trips over it.
func TestScrubberHealsInBackground(t *testing.T) {
	leakcheck.Check(t)
	c, ids := newCorruptDisk(t, 8)
	taint(t, c, ids[5], false)
	p := NewWithConfig(c, 4, core.NewSyncReplacer(4, core.Options{}), Config{
		ScrubInterval: 200 * time.Microsecond,
	})
	p.Start()

	deadline := time.Now().Add(10 * time.Second)
	for {
		s := p.Stats()
		if s.ScrubCorrupt >= 1 && s.CorruptRepaired >= 1 && c.Ledger().Tainted == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never healed the taint: %+v, wrapper %+v", s, c.Ledger())
		}
		time.Sleep(time.Millisecond)
	}
	if s := p.Stats(); s.ScrubPages == 0 {
		t.Errorf("scrubber verified no clean pages: %+v", s)
	}
	pg, err := p.FetchCtx(context.Background(), ids[5])
	if err != nil {
		t.Fatalf("fetch after background heal: %v", err)
	}
	if pg.Data()[0] != 6 {
		t.Errorf("healed page holds %d, want its preloaded stamp", pg.Data()[0])
	}
	pg.Unpin(false)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestENOSPCFailsFastWhileHitsServe: on a full device allocations and
// write-backs fail on their one disk attempt, while resident pages keep
// serving from memory.
func TestENOSPCFailsFastWhileHitsServe(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	defer p.Close()

	// Warm a page, then fill the device.
	pg, err := p.FetchCtx(context.Background(), ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(true)
	d.SetPlan(storagetest.NewPlan(1,
		storagetest.Rule{Op: storage.OpAllocate, Err: storage.ErrNoSpace},
		storagetest.Rule{Op: storage.OpWrite, Err: storage.ErrNoSpace},
	))

	if _, err := p.NewPageCtx(context.Background()); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("NewPage on full device: %v, want ErrNoSpace", err)
	}
	if err := flushPage(context.Background(), p, ids[0]); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("flush on full device: %v, want ErrNoSpace", err)
	}
	s := p.Stats()
	if fs := d.Ledger(); s.WriteErrors != 1 || fs.WriteFaults != s.WriteErrors {
		t.Errorf("stats %+v, %d disk write faults; want exactly one write error, one fault", s, fs.WriteFaults)
	}
	// The resident page still serves — out-of-space starves writes, not
	// memory.
	pg, err = p.FetchCtx(context.Background(), ids[0])
	if err != nil {
		t.Fatalf("hit during ENOSPC: %v", err)
	}
	pg.Unpin(false)
	if hits := p.Stats().Hits; hits == 0 {
		t.Error("no hit recorded during ENOSPC")
	}
	d.SetPlan(nil)
}

// TestCorruptionStorm is the integrity headline: many goroutines hammer a
// small pool while the corruption stage taints write-backs — bit rot,
// misdirected writes landing on a neighbour, and a bounded run of
// unrepairable damage. The background scrubber runs throughout. Individual
// fetches may fail with the corruption error; the pool may not lose data
// or miscount. After the storm the injection ledger must reconcile exactly
// with the pool's integrity counters and the disk's transfer ledger, and
// the set of pages still tainted must be exactly the set the pool
// quarantined.
func TestCorruptionStorm(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		runCorruptionStorm(t, sim.New(sim.ServiceModel{}))
	})
	t.Run("file", func(t *testing.T) {
		s, err := file.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		runCorruptionStorm(t, s)
	})
}

func runCorruptionStorm(t *testing.T, base storage.Backend) {
	const (
		goroutines = 8
		pages      = 128 // even: a misdirect taints id^1, which must stay in range
		frames     = 32
		opsPerG    = 1500
		seed       = 7
	)
	leakcheck.Check(t)
	c := storagetest.Wrap(base)
	ids := make([]policy.PageID, pages)
	committed := make([]uint64, pages) // owner-goroutine writes, read after Wait
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		ids[i] = storagetest.MustAllocate(c)
		if ids[i] != policy.PageID(i) {
			t.Fatalf("storm needs contiguous ids from 0, got %d at %d", ids[i], i)
		}
		committed[i] = uint64(1000 + i)
		binary.LittleEndian.PutUint64(buf, committed[i])
		if err := c.Write(context.Background(), ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	preload := uint64(pages)

	// The storm's corruption plan, armed only after the clean preload: a
	// bounded burst of unrepairable damage, a misdirect trickle, and a
	// steady bit-rot rate.
	c.SetPlan(storagetest.NewPlan(seed,
		storagetest.Rule{Corrupt: storage.CorruptChecksum, Probability: 0.02, Count: 16, Unrepairable: true},
		storagetest.Rule{Corrupt: storage.CorruptMisdirect, Probability: 0.02},
		storagetest.Rule{Corrupt: storage.CorruptChecksum, Probability: 0.05},
	))

	p := NewWithConfig(c, frames, core.NewSyncReplacer(2, core.Options{}), Config{
		// The breaker is armed but effectively untrippable: this storm
		// reconciles ledgers exactly, and breaker rejections would make
		// which-fetch-fails schedule-dependent in ways the data checks
		// below do not need. Breaker/corruption interaction has its own
		// test.
		Breaker:       BreakerConfig{Threshold: 1 << 30, Cooldown: time.Millisecond, Probes: 1},
		ScrubInterval: 500 * time.Microsecond,
	})
	p.Start()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(seed + uint64(g))
			for op := 0; op < opsPerG; op++ {
				i := rng.Intn(pages)
				id := ids[i]
				own := i%goroutines == g
				if own && op%64 == 63 {
					_ = flushPage(context.Background(), p, id) // occasional explicit write-back
					continue
				}
				pg, err := p.FetchCtx(context.Background(), id)
				if err != nil {
					// Corruption casualties (repair failed, or the id is
					// quarantined) and exhausted sweeps are expected;
					// anything else is a pool bug.
					if !storage.IsCorrupt(err) && !errors.Is(err, ErrNoFreeFrame) {
						t.Errorf("goroutine %d: fetch %d: %v", g, id, err)
					}
					continue
				}
				if own {
					v := committed[i] + 1
					binary.LittleEndian.PutUint64(pg.Data(), v)
					committed[i] = v
					pg.Unpin(true)
				} else {
					pg.Unpin(false)
				}
			}
		}(g)
	}
	wg.Wait()

	// Phase 2: disarm injection (existing taints stay — damage on the media
	// does not evaporate) and drive the pool to a fixed point: everything
	// repairable repaired, everything else quarantined.
	c.SetPlan(nil)
	ctx := context.Background()

	// The storm can finish before the background scrubber ever wins the
	// race to a corrupt page (fetches detect first), so hand it one
	// detection deterministically: flush a clean page, taint it below the
	// pool, and sweep. The side-channel read and write are added to the
	// ledger expectations below.
	var sideReads, sideWrites uint64
	{
		inSet := func(set []policy.PageID, id policy.PageID) bool {
			for _, s := range set {
				if s == id {
					return true
				}
			}
			return false
		}
		tainted, poisoned := c.TaintedPages(), p.PoisonedPages()
		target, found := policy.PageID(0), false
		for _, id := range ids {
			if !inSet(tainted, id) && !inSet(poisoned, id) {
				target, found = id, true
				break
			}
		}
		if !found {
			t.Fatal("storm left no clean page to seed the scrubber with")
		}
		if err := flushPage(context.Background(), p, target); err != nil && !errors.Is(err, errNotResident) {
			t.Fatalf("flush of scrub target %d: %v", target, err)
		}
		if err := c.Read(ctx, target, buf); err != nil {
			t.Fatalf("side read of scrub target: %v", err)
		}
		sideReads++
		c.SetPlan(storagetest.NewPlan(1, storagetest.Rule{
			Pages: []policy.PageID{target}, Count: 1, Corrupt: storage.CorruptChecksum}))
		if err := c.Write(ctx, target, buf); err != nil {
			t.Fatalf("side write of scrub target: %v", err)
		}
		sideWrites++
		c.SetPlan(nil)
		p.ScrubSweep(ctx, pages)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := p.FlushAll(); err != nil {
			t.Fatalf("post-storm flush: %v", err)
		}
		p.ScrubSweep(ctx, pages)
		tainted := c.TaintedPages()
		poisoned := p.PoisonedPages()
		if pageSetsEqual(tainted, poisoned) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no fixed point: tainted %v vs poisoned %v", tainted, poisoned)
		}
		time.Sleep(time.Millisecond)
	}

	// Data: every non-quarantined page must hold its owner's last committed
	// value; every quarantined page must refuse with the corruption error.
	poisoned := make(map[policy.PageID]bool)
	for _, id := range p.PoisonedPages() {
		poisoned[id] = true
	}
	for i, id := range ids {
		if poisoned[id] {
			if _, err := p.FetchCtx(context.Background(), id); !storage.IsCorrupt(err) {
				t.Errorf("quarantined page %d served: %v", id, err)
			}
			continue
		}
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Errorf("post-storm fetch of clean page %d: %v", id, err)
			continue
		}
		if got := binary.LittleEndian.Uint64(pg.Data()); got != committed[i] {
			t.Errorf("page %d: holds %d, owner committed %d (lost update)", id, got, committed[i])
		}
		pg.Unpin(false)
	}

	free, tabled := frameAccounting(p)
	if free+tabled != p.NumFrames() {
		t.Errorf("frame accounting: %d free + %d resident != %d frames", free, tabled, p.NumFrames())
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close after storm: %v", err)
	}

	// The ledgers are read only now, with the pool closed. The background
	// scrubber bumps the backend's read counter inside backend.Read and the
	// pool's ScrubPages after it returns, so a snapshot taken while it runs
	// can catch a probe in the disk's ledger that the pool has not counted
	// yet (one read too many, on the file backend where a read is a syscall
	// wide enough to straddle). Close joins the scrubber; the verification
	// fetches above and Close's own flush count on both sides.
	s, ds, cs := p.Stats(), c.Stats(), c.Ledger()

	// Injection conservation: every taint ever laid is either cleared
	// (overwritten or repaired) or still on a page — and every page still
	// tainted is exactly one the pool quarantined.
	if cs.Injected != cs.Cleared+uint64(cs.Tainted) {
		t.Errorf("wrapper ledger broken: injected=%d != cleared=%d + tainted=%d",
			cs.Injected, cs.Cleared, cs.Tainted)
	}
	// Every detection resolved exactly once.
	if s.CorruptDetected != s.CorruptRepaired+s.CorruptQuarantined {
		t.Errorf("detections unresolved: detected=%d != repaired=%d + quarantined=%d",
			s.CorruptDetected, s.CorruptRepaired, s.CorruptQuarantined)
	}
	// Transfer ledger: every disk read is a non-coalesced, non-failed,
	// non-refused miss or a clean scrub probe; every write beyond the
	// preload is a counted write-back (scrub rewrites included).
	if want := s.Misses - s.Coalesced - s.ReadErrors - s.ReadsRejected + s.ScrubPages + sideReads; ds.Reads != want {
		t.Errorf("disk reads = %d, want misses-coalesced-readErrors-readsRejected+scrubPages+side = %d",
			ds.Reads, want)
	}
	if want := preload + s.WriteBacks + sideWrites; ds.Writes != want {
		t.Errorf("disk writes = %d, want preload+writeBacks+side = %d", ds.Writes, want)
	}
	// Nothing injects a disk fault, and corruption fails reads only.
	if s.WriteErrors != 0 {
		t.Errorf("%d write errors with no disk fault injected; want 0", s.WriteErrors)
	}
	if s.Hits == 0 || s.Misses == 0 || s.CorruptDetected == 0 || s.CorruptRepaired == 0 ||
		s.CorruptQuarantined == 0 || s.ScrubPages == 0 || s.ScrubCorrupt == 0 {
		t.Errorf("storm did not exercise all integrity paths: %+v", s)
	}
}

func pageSetsEqual(a, b []policy.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]policy.PageID(nil), a...)
	bs := append([]policy.PageID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// cancelAfterRead cancels its caller's context once a Read returns: the
// caller gives up while the read is in flight. It passes repair through to
// the store beneath it, as the test injector does.
type cancelAfterRead struct {
	storage.Backend
	cancel context.CancelFunc
}

func (d cancelAfterRead) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	err := d.Backend.Read(ctx, p, buf)
	d.cancel()
	return err
}

func (d cancelAfterRead) RepairPage(ctx context.Context, p policy.PageID) error {
	return d.Backend.(storage.Repairer).RepairPage(ctx, p)
}

// TestCancelledRepairLeavesPageUnpoisoned: a read that detects corruption
// under a context the caller cancels meanwhile cannot repair the page — the
// store refuses a repair under an ended context — but the page still has a
// clean copy in the log. The detection stays unresolved: the page is not
// poisoned, no corruption or read-error ledger counts it, and the next read
// under a live context repairs it. Both detecting paths, a fetch's miss and
// a scrub, keep the contract.
func TestCancelledRepairLeavesPageUnpoisoned(t *testing.T) {
	for _, path := range []string{"fetch", "scrub"} {
		t.Run(path, func(t *testing.T) {
			dir := t.TempDir()
			s, err := file.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id := storagetest.MustAllocate(s)
			buf := make([]byte, storage.PageSize)
			buf[0] = 7
			if err := s.Write(context.Background(), id, buf); err != nil {
				t.Fatal(err)
			}
			if ids, err := file.CorruptPages(dir, 1, 1); err != nil || len(ids) != 1 || ids[0] != id {
				t.Fatalf("CorruptPages = %v, %v; want page %d damaged", ids, err, id)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p := New(cancelAfterRead{Backend: s, cancel: cancel}, 4, core.NewSyncReplacer(2, core.Options{}))
			defer p.Close()

			if path == "fetch" {
				if _, err := p.FetchCtx(ctx, id); !errors.Is(err, context.Canceled) {
					t.Fatalf("fetch cancelled during its read = %v, want context.Canceled", err)
				}
			} else if n := p.ScrubSweep(ctx, 1); n != 1 {
				t.Fatalf("ScrubSweep examined %d pages, want 1", n)
			}
			if got := p.PoisonedPages(); len(got) != 0 {
				t.Fatalf("a repair the caller cancelled poisoned %v", got)
			}
			if st := p.Stats(); st.CorruptDetected != 0 || st.CorruptRepaired != 0 || st.CorruptQuarantined != 0 ||
				st.ScrubCorrupt != 0 || st.ReadErrors != 0 {
				t.Fatalf("unresolved detection counted: %+v", st)
			}

			if path == "fetch" {
				pg, err := p.FetchCtx(context.Background(), id)
				if err != nil {
					t.Fatalf("fetch under a live context = %v, want the repaired page", err)
				}
				if got := pg.Data()[0]; got != 7 {
					t.Errorf("repaired page holds %d, want 7", got)
				}
				pg.Unpin(false)
			} else {
				p.ScrubSweep(context.Background(), 1)
			}
			st := p.Stats()
			if st.CorruptDetected != 1 || st.CorruptRepaired != 1 || st.CorruptQuarantined != 0 {
				t.Errorf("after the live read: %+v, want one detection, repaired", st)
			}
			if path == "scrub" && st.ScrubCorrupt != 1 {
				t.Errorf("ScrubCorrupt = %d, want 1", st.ScrubCorrupt)
			}
		})
	}
}

// TestAllocatedPageScrubsClean: a page AllocatePage reserved and nothing has
// written yet is in the scrubber's range and verifies clean on both
// backends — the simulator's never-written page and the file store's sparse
// hole both read as zeros. Written once through WriteNewPage, it scrubs
// clean again and a fetch reads its image, the page's first reference.
func TestAllocatedPageScrubsClean(t *testing.T) {
	for _, backend := range []string{"sim", "file"} {
		t.Run(backend, func(t *testing.T) {
			var b storage.Backend = sim.New(sim.ServiceModel{})
			if backend == "file" {
				s, err := file.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				b = s
			}
			p := New(b, 4, core.NewSyncReplacer(2, core.Options{}))
			defer p.Close()
			ctx := context.Background()
			id, err := p.AllocatePage()
			if err != nil {
				t.Fatal(err)
			}
			if n := p.ScrubSweep(ctx, 1); n != 1 {
				t.Fatalf("ScrubSweep examined %d pages, want the allocated one", n)
			}
			if st := p.Stats(); st.ScrubPages != 1 || st.CorruptDetected != 0 || len(p.PoisonedPages()) != 0 {
				t.Fatalf("unwritten page did not scrub clean: %+v", st)
			}

			img := make([]byte, storage.PageSize)
			img[0] = 9
			if err := p.WriteNewPage(ctx, id, img); err != nil {
				t.Fatal(err)
			}
			if p.Resident(id) {
				t.Fatal("WriteNewPage gave the page a frame")
			}
			p.ScrubSweep(ctx, 1)
			pg, err := p.FetchCtx(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if got := pg.Data()[0]; got != 9 {
				t.Errorf("fetched page holds %d, want the written 9", got)
			}
			pg.Unpin(false)
			if st := p.Stats(); st.ScrubPages != 2 || st.CorruptDetected != 0 || st.Misses != 1 || st.WriteBacks != 0 {
				t.Errorf("stats %+v, want 2 clean scrubs, one miss and no write-back", st)
			}
		})
	}
}

// TestScrubRangeIsTheBackend: the scrubber sweeps the backend's pages and
// nothing else. A failed fetch of an id that was never allocated does not
// stretch the range, so a sweep four times around 64 pages verifies every
// page it reads and feeds the breaker no failures.
func TestScrubRangeIsTheBackend(t *testing.T) {
	leakcheck.Check(t)
	const pages = 64
	d := newFaultyDisk(sim.ServiceModel{})
	allocPages(t, d, pages)
	p := NewWithConfig(d, 4, core.NewSyncReplacer(2, core.Options{}), Config{
		Breaker: BreakerConfig{Threshold: 8, Cooldown: time.Hour, Probes: 1},
	})
	defer p.Close()
	if _, err := p.FetchCtx(context.Background(), 10*pages); err == nil {
		t.Fatal("fetch of a never-allocated page succeeded")
	}
	if n := p.ScrubSweep(context.Background(), 4*pages); n != 4*pages {
		t.Fatalf("ScrubSweep examined %d pages, want %d", n, 4*pages)
	}
	if got := p.Stats().ScrubPages; got != 4*pages {
		t.Errorf("%d of %d scrub reads verified, want all: the sweep read pages the backend never allocated",
			got, 4*pages)
	}
	if p.BreakerOpen() {
		t.Error("circuit open after the sweep")
	}
}

// TestBreakerOpenPausesScrubber: while the circuit is open, scrub sweeps
// make no disk attempt and settle nothing; once the disk heals and the
// cooldown passes, a scrub read is the half-open probe that closes it.
func TestBreakerOpenPausesScrubber(t *testing.T) {
	leakcheck.Check(t)
	d := newFaultyDisk(sim.ServiceModel{})
	allocPages(t, d, 8)
	p := NewWithConfig(d, 4, core.NewSyncReplacer(2, core.Options{}), Config{
		Breaker:       BreakerConfig{Threshold: 2, Cooldown: 200 * time.Millisecond, Probes: 1},
		ScrubInterval: 200 * time.Microsecond,
	})
	defer p.Close()
	p.Start()
	await := func(what string, ok func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("no %s in 10s", what)
			}
		}
	}
	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpRead}))
	await("trip by the scrubber's failed reads", p.BreakerOpen)
	st, ds, fs := p.Stats(), d.Stats(), d.Ledger()
	p.ScrubSweep(context.Background(), 64)
	if st2, ds2 := p.Stats(), d.Stats(); d.Ledger() != fs || ds2.Reads != ds.Reads ||
		st2.ScrubPages != st.ScrubPages || st2.ScrubCorrupt != st.ScrubCorrupt ||
		st2.CorruptDetected != st.CorruptDetected || len(p.PoisonedPages()) != 0 {
		t.Fatalf("scrubs on an open circuit moved the ledgers: pool %+v -> %+v, disk %+v -> %+v", st, st2, ds, ds2)
	}
	d.SetPlan(nil)
	await("scrub probe closing the circuit", func() bool { return !p.BreakerOpen() && p.Stats().ScrubPages > st.ScrubPages })
	if n := p.Stats().BreakerTrips; n != 1 {
		t.Errorf("BreakerTrips = %d, want 1", n)
	}
}

// TestWriteNewPageFailure: a first-image write that fails returns its error
// and counts once in WriteErrors, so the fault ledger WriteFaults ==
// WriteErrors holds, but quarantines nothing — no frame holds the page.
// The caller's image is intact, and writing it again succeeds.
func TestWriteNewPageFailure(t *testing.T) {
	faulty := storagetest.Wrap(sim.New(sim.ServiceModel{}))
	p := New(faulty, 4, core.NewSyncReplacer(2, core.Options{}))
	defer p.Close()
	id, err := p.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, storage.PageSize)
	img[0] = 5
	faulty.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Count: 1}))
	ctx := context.Background()
	if err := p.WriteNewPage(ctx, id, img); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Fatalf("WriteNewPage through a fault = %v, want the injected fault", err)
	}
	if st := p.Stats(); st.WriteErrors != 1 || p.Quarantined() != 0 || p.Resident(id) {
		t.Fatalf("failed write: %+v, %d quarantined, resident %v; want one error, nothing held",
			st, p.Quarantined(), p.Resident(id))
	}
	if err := p.WriteNewPage(ctx, id, img); err != nil {
		t.Fatalf("WriteNewPage after the fault = %v, want nil", err)
	}
	st, disk, fs := p.Stats(), faulty.Stats(), faulty.Ledger()
	if fs.WriteFaults != st.WriteErrors || disk.Writes != 1 {
		t.Errorf("%d write faults, %d errors, %d disk writes; want the ledger exact and one write",
			fs.WriteFaults, st.WriteErrors, disk.Writes)
	}
	pg, err := p.FetchCtx(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.Data()[0]; got != 5 {
		t.Errorf("page holds %d, want 5", got)
	}
	pg.Unpin(false)
}
