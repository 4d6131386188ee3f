package bufferpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// The tests in this file pin down the protocol in which the pin count is
// the only authority on evictability: the replacer ranks every resident
// page, pins and unpins tell it nothing, and an eviction sweep skips the
// candidates it finds pinned.

// selection is one traced victim choice: the page, and HIST(p,K) recovered
// from the Backward K-distance the replacer reported (clock - kdist).
type selection struct {
	page  policy.PageID
	histK policy.Tick
}

// selectionLog is a core.PolicyTracer recording victim selections. It is
// invoked under the replacer's mutex, so it needs no lock of its own as
// long as it is read only while the pool is quiet.
type selectionLog struct{ picks []selection }

func (l *selectionLog) TraceEvict(p policy.PageID, clock, kdist policy.Tick, infinite bool) {
	if infinite {
		kdist = clock
	}
	l.picks = append(l.picks, selection{page: p, histK: clock - kdist})
}

// touch fetches and releases id.
func touch(t *testing.T, p *Pool, id policy.PageID, dirty bool) {
	t.Helper()
	pg, err := p.FetchCtx(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(dirty)
}

// TestPinnedHeadOfVictimOrderIsSkipped pins the page Definition 2.2 ranks
// first on a full pool and misses: the sweep must select it, find it
// pinned, and evict the second-ranked page instead — without fabricating
// or losing a reference for the pinned page, which a later sweep takes as
// soon as it is unpinned.
func TestPinnedHeadOfVictimOrderIsSkipped(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	var ids []policy.PageID
	for i := 0; i < 4; i++ {
		ids = append(ids, storagetest.MustAllocate(d))
	}
	a, b, c, x := ids[0], ids[1], ids[2], ids[3]
	r := core.NewSyncReplacer(2, core.Options{})
	log := &selectionLog{}
	r.SetTracer(log)
	p := New(d, 3, r)

	// Two references each, A's oldest: HIST(A)=[4,1], HIST(B)=[5,2],
	// HIST(C)=[6,3]. A's second reference keeps its pin.
	touch(t, p, a, false)
	touch(t, p, b, false)
	touch(t, p, c, false)
	held, err := p.FetchCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, p, b, false)
	touch(t, p, c, false)

	touch(t, p, x, false) // miss on a full pool
	if !p.Resident(a) || p.Resident(b) || !p.Resident(c) {
		t.Fatalf("resident A=%v B=%v C=%v, want the second-ranked page B evicted around the pinned head A",
			p.Resident(a), p.Resident(b), p.Resident(c))
	}
	if len(log.picks) != 2 || log.picks[0].page != a || log.picks[1].page != b {
		t.Fatalf("selections %+v, want A (pinned, abandoned) then B", log.picks)
	}
	if got := r.PolicyStats().Evictions - p.Stats().Evictions; got != 1 {
		t.Errorf("policy evictions - pool evictions = %d, want 1 abandoned selection", got)
	}
	if got := r.PolicyStats().Evictable; got != p.NumFrames() {
		t.Errorf("Evictable = %d after the sweep, want every resident page (%d)", got, p.NumFrames())
	}

	// Give X a second reference so A is again the maximum, release A, and
	// miss once more: the sweep takes A, and the HIST(A,2) behind the
	// choice is the one behind the abandoned choice.
	touch(t, p, x, false)
	held.Unpin(false)
	touch(t, p, b, false)
	if p.Resident(a) {
		t.Fatal("A survived a sweep after it was unpinned")
	}
	last := log.picks[len(log.picks)-1]
	if len(log.picks) != 3 || last.page != a {
		t.Fatalf("selections %+v, want a third selection of A", log.picks)
	}
	if last.histK != log.picks[0].histK || last.histK != 1 {
		t.Errorf("HIST(A,2) was %d at the abandoned selection and %d at the next, want 1 both times",
			log.picks[0].histK, last.histK)
	}
	if hits := p.Stats().Hits; hits != 4 {
		t.Errorf("Hits = %d, want 4", hits)
	}
}

// TestAllFramesPinnedRecovers fills the pool with pinned pages: a miss
// visits each candidate once and fails with ErrNoFreeFrame, no page falls
// out of the replacer, and the same miss succeeds once the pins drop.
func TestAllFramesPinnedRecovers(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	const frames = 5
	var ids []policy.PageID
	for i := 0; i < frames+1; i++ {
		ids = append(ids, storagetest.MustAllocate(d))
	}
	r := core.NewSyncReplacer(2, core.Options{})
	p := New(d, frames, r)
	held := make([]Page, frames)
	for i := range held {
		pg, err := p.FetchCtx(context.Background(), ids[i])
		if err != nil {
			t.Fatal(err)
		}
		held[i] = pg
	}
	if got := r.PolicyStats().Evictable; got != frames {
		t.Errorf("Evictable = %d with every page pinned, want %d: a pin is not the replacer's business", got, frames)
	}
	if _, err := p.FetchCtx(context.Background(), ids[frames]); !errors.Is(err, ErrNoFreeFrame) {
		t.Fatalf("fetch with every frame pinned: %v, want ErrNoFreeFrame", err)
	}
	ps := r.PolicyStats()
	if ps.Evictions != frames {
		t.Errorf("the failed sweep made %d selections, want each of the %d candidates once", ps.Evictions, frames)
	}
	if ps.Evictable != frames {
		t.Errorf("Evictable = %d after the failed sweep, want %d (a page fell out of the replacer)", ps.Evictable, frames)
	}
	for i := range held {
		held[i].Unpin(false)
	}
	if got := r.PolicyStats().Evictable; got != p.NumFrames() {
		t.Errorf("Evictable = %d after unpinning, want NumFrames = %d", got, p.NumFrames())
	}
	touch(t, p, ids[frames], false)
	if s := p.Stats(); s.Evictions != 1 {
		t.Errorf("stats %+v, want exactly one eviction", s)
	}
	checkFrameInvariant(t, p)
}

// TestSkippedCandidateNotHeldAcrossWriteBack parks a dirty victim's
// write-back and checks that the pinned page the sweep skipped on its way
// there is a candidate again while the write is still in flight.
func TestSkippedCandidateNotHeldAcrossWriteBack(t *testing.T) {
	var gate atomic.Bool
	inWrite := make(chan struct{})
	release := make(chan struct{})
	d := sim.New(sim.ServiceModel{Delay: func(int64) {
		if gate.CompareAndSwap(true, false) {
			close(inWrite)
			<-release
		}
	}})
	a, b, c := storagetest.MustAllocate(d), storagetest.MustAllocate(d), storagetest.MustAllocate(d)
	r := core.NewSyncReplacer(2, core.Options{})
	p := New(d, 2, r)

	// HIST(A)=[3,1] pinned, HIST(B)=[4,2] dirty: the sweep meets A first.
	touch(t, p, a, false)
	touch(t, p, b, false)
	held, err := p.FetchCtx(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, p, b, true)

	gate.Store(true)
	done := make(chan error, 1)
	go func() {
		pg, err := p.FetchCtx(context.Background(), c)
		if err == nil {
			pg.Unpin(false)
		}
		done <- err
	}()
	<-inWrite // B's write-back is parked
	if got := r.PolicyStats().Evictable; got != 1 {
		t.Errorf("Evictable = %d during the write-back, want 1: the skipped page A must be back, the victim B out", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	held.Unpin(false)
	if !p.Resident(a) || p.Resident(b) || !p.Resident(c) {
		t.Errorf("resident A=%v B=%v C=%v, want B replaced by C", p.Resident(a), p.Resident(b), p.Resident(c))
	}
	if got := r.PolicyStats().Evictions - p.Stats().Evictions; got != 1 {
		t.Errorf("policy evictions - pool evictions = %d, want 1", got)
	}
}

// TestPinAuthorityStress runs hits on a hot set, misses that evict, fresh
// dirty pages from NewPage, and FlushAll from many goroutines (run
// it under -race -count=10). When the dust settles every resident page
// must be a victim candidate and nothing else: no page fell out of the
// replacer, none stayed in after leaving the pool.
func TestPinAuthorityStress(t *testing.T) {
	leakcheck.Check(t)
	const (
		goroutines = 6
		frames     = 24
		hotN       = 12
		coldN      = 120
		iters      = 3000
	)
	d := sim.New(sim.ServiceModel{})
	pages := make([]policy.PageID, hotN+coldN)
	for i := range pages {
		pages[i] = storagetest.MustAllocate(d)
	}
	r := core.NewSyncReplacer(2, core.Options{})
	p := New(d, frames, r)
	p.Start()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g + 1))
			fail := func(err error) bool {
				if err == nil || errors.Is(err, ErrNoFreeFrame) {
					return false
				}
				errs <- err
				return true
			}
			for i := 0; i < iters; i++ {
				switch op := rng.Intn(100); {
				case op < 60: // hot hit, sometimes holding a second pin
					pg, err := p.FetchCtx(context.Background(), pages[rng.Intn(hotN)])
					if err != nil {
						if fail(err) {
							return
						}
						continue
					}
					if op < 15 {
						pg2, err := p.FetchCtx(context.Background(), pages[rng.Intn(hotN)])
						if fail(err) {
							pg.Unpin(false)
							return
						}
						if err == nil {
							pg2.Unpin(false)
						}
					}
					pg.Unpin(op%7 == 0)
				case op < 90: // cold miss that evicts
					pg, err := p.FetchCtx(context.Background(), pages[hotN+rng.Intn(coldN)])
					if err != nil {
						if fail(err) {
							return
						}
						continue
					}
					pg.Unpin(op%5 == 0)
				case op < 97: // allocate and dirty; eviction writes it back
					pg, err := p.NewPageCtx(context.Background())
					if err != nil {
						if fail(err) {
							return
						}
						continue
					}
					pg.Data()[0] = byte(g)
					pg.Unpin(true)
				default:
					if err := p.FlushAll(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	free, tabled := frameAccounting(p)
	if free+tabled != p.NumFrames() {
		t.Errorf("frame accounting: %d free + %d resident != %d", free, tabled, p.NumFrames())
	}
	if got := r.PolicyStats().Evictable; got != tabled {
		t.Errorf("Evictable = %d, want the %d resident pages", got, tabled)
	}
	for i := range p.frames {
		if n := p.frames[i].pins(); n != 0 {
			t.Errorf("frame %d left with %d pins", i, n)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHitAllocatesNothing is the count-based guard behind the benchmark's
// allocs_per_op: a fetch and release of a resident page must not touch
// the heap — the handle is a value and the replacer event lands in a
// preallocated ring.
func TestHitAllocatesNothing(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	id := storagetest.MustAllocate(d)
	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	touch(t, p, id, false)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(2000, func() {
		pg, err := p.FetchCtx(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		_ = pg.Data()[0]
		pg.Unpin(false)
	})
	if allocs != 0 {
		t.Errorf("FetchCtx + Unpin of a resident page allocates %.2f times per call, want 0", allocs)
	}
}

// TestMissAllocatesNothing extends the guard to the miss path: a fetch that
// evicts a victim — clean, or dirty and written back to the simulated disk
// first — reads the page into the freed frame and allocates nothing. No
// fetch here waits on another, so no frame's done channel is ever made.
func TestMissAllocatesNothing(t *testing.T) {
	const frames, pages = 4, 8
	for _, dirty := range []bool{false, true} {
		d := sim.New(sim.ServiceModel{})
		ids := make([]policy.PageID, pages)
		for i := range ids {
			ids[i] = storagetest.MustAllocate(d)
		}
		p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))
		ctx := context.Background()
		i := 0
		fetch := func() {
			pg, err := p.FetchCtx(ctx, ids[i%pages])
			if err != nil {
				t.Fatal(err)
			}
			i++
			pg.Data()[0]++
			pg.Unpin(dirty)
		}
		for range 2 * pages { // warm: every page has its HIST block
			fetch()
		}
		before := p.Stats()
		allocs := testing.AllocsPerRun(2000, fetch)
		s := p.Stats()
		if s.Hits != before.Hits || s.Evictions == before.Evictions {
			t.Fatalf("dirty=%v: the loop did not miss and evict (stats %+v)", dirty, s)
		}
		if dirty && s.WriteBacks == before.WriteBacks {
			t.Fatalf("dirty victims were not written back (stats %+v)", s)
		}
		if allocs != 0 {
			t.Errorf("dirty=%v: a miss that evicts allocates %.2f times per call, want 0", dirty, allocs)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
