package bufferpool

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// The tests in this file pin down the page-state array: the page table is a
// directory of chunks of slots indexed by page id, which grows only for
// allocated ids and never moves a published slot.

// markPage stamps id+1 into a page image, so a frame holding the wrong page
// (or a zeroed one) is told apart from it.
func markPage(buf []byte, id policy.PageID) { binary.LittleEndian.PutUint64(buf, uint64(id)+1) }

func pageMark(buf []byte) policy.PageID { return policy.PageID(binary.LittleEndian.Uint64(buf)) - 1 }

// TestFetchBeyondThePagesIsRefused fetches ids no chunk covers and the
// backend never allocated, on a full pool: each fails with
// ErrPageNotAllocated before a victim is chosen or the directory grows, and
// counts one miss and one read error.
func TestFetchBeyondThePagesIsRefused(t *testing.T) {
	const frames = 4
	d := sim.New(sim.ServiceModel{})
	var ids []policy.PageID
	for i := 0; i < frames; i++ {
		ids = append(ids, storagetest.MustAllocate(d))
	}
	r := core.NewSyncReplacer(2, core.Options{})
	p := New(d, frames, r)
	for _, id := range ids {
		touch(t, p, id, false)
	}
	dir := p.dir.Load()
	for _, id := range []policy.PageID{policy.InvalidPage, 10 * pageChunkLen, 1 << 40} {
		before, selections := p.Stats(), r.PolicyStats().Evictions
		if _, err := p.FetchCtx(context.Background(), id); !errors.Is(err, storage.ErrPageNotAllocated) {
			t.Fatalf("fetch of page %d = %v, want ErrPageNotAllocated", id, err)
		}
		s := p.Stats()
		if s.Misses != before.Misses+1 || s.ReadErrors != before.ReadErrors+1 || s.Evictions != before.Evictions {
			t.Errorf("page %d: stats %+v after %+v, want one more miss and read error and no eviction", id, s, before)
		}
		if got := r.PolicyStats().Evictions; got != selections {
			t.Errorf("page %d: the replacer selected %d victims for it, want none", id, got-selections)
		}
		if p.dir.Load() != dir {
			t.Errorf("page %d: the directory grew", id)
		}
	}
	for _, id := range ids {
		if !p.Resident(id) {
			t.Errorf("page %d was evicted by a refused fetch", id)
		}
	}
	checkFrameInvariant(t, p)
}

// TestReopenedFileStoreFetchesAcrossChunks reopens a file store whose pages
// span three chunks of the page-state array and fetches its highest page,
// and the first page of the middle chunk, through a fresh pool.
func TestReopenedFileStoreFetchesAcrossChunks(t *testing.T) {
	dir := t.TempDir()
	s, err := file.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last policy.PageID
	for i := 0; i < 2*pageChunkLen+3; i++ {
		if last, err = s.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, storage.PageSize)
	for _, id := range []policy.PageID{pageChunkLen, last} {
		markPage(buf, id)
		if err := s.Write(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = file.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := New(s, 2, core.NewSyncReplacer(2, core.Options{}))
	for _, id := range []policy.PageID{last, pageChunkLen} {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Fatalf("fetch of page %d of %d: %v", id, s.NumPages(), err)
		}
		if got := pageMark(pg.Data()); got != id {
			t.Errorf("page %d holds page %d's image", id, got)
		}
		pg.Unpin(false)
	}
	if got, want := len(*p.dir.Load()), int(last/pageChunkLen)+1; got != want {
		t.Errorf("directory of %d chunks, want %d", got, want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// stalledRead parks the first read of page, once, until fail closes, then
// fails it.
type stalledRead struct {
	storage.Backend
	page          policy.PageID
	armed         atomic.Bool
	reading, fail chan struct{}
}

func (s *stalledRead) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if p == s.page && s.armed.CompareAndSwap(true, false) {
		close(s.reading)
		<-s.fail
		return errors.New("read failed")
	}
	return s.Backend.Read(ctx, p, buf)
}

// TestFailedLoadAcrossDirectoryGrowth grows the directory while a load is
// in flight, then fails the load: the unlink must reach the slot the load
// was installed in, which the growth must not have moved, so the page is
// not resident and the next fetch of it is a fresh miss.
func TestFailedLoadAcrossDirectoryGrowth(t *testing.T) {
	ctx := context.Background()
	base := sim.New(sim.ServiceModel{})
	for i := 0; i < pageChunkLen; i++ {
		storagetest.MustAllocate(base)
	}
	d := &stalledRead{Backend: base, page: 0, reading: make(chan struct{}), fail: make(chan struct{})}
	d.armed.Store(true)
	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	loaded := make(chan error, 1)
	go func() {
		_, err := p.FetchCtx(ctx, d.page)
		loaded <- err
	}()
	<-d.reading
	pg, err := p.NewPageCtx(ctx) // the first page of the second chunk
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID() != pageChunkLen || len(*p.dir.Load()) != 2 {
		t.Fatalf("new page %d, directory of %d chunks; want page %d in a second chunk", pg.ID(), len(*p.dir.Load()), pageChunkLen)
	}
	pg.Unpin(false)
	close(d.fail)
	if err := <-loaded; err == nil {
		t.Fatal("the stalled load succeeded")
	}
	if p.Resident(d.page) {
		t.Fatal("the failed load left its frame in the page table")
	}
	if pg, err = p.FetchCtx(ctx, d.page); err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if s := p.Stats(); s.Misses != 3 || s.Hits != 0 || s.ReadErrors != 1 {
		t.Errorf("stats %+v, want 3 misses (the failed load, the new page, the refetch), 0 hits, 1 read error", s)
	}
	checkFrameInvariant(t, p)
}

// TestPageStateGrowthStress races fetches of pages on both sides of a chunk
// boundary, and of pages just allocated, against NewPageCtx calls whose
// fresh ids grow the directory chunk by chunk (run it under -race
// -count=20). Every fetch must find its own page's image, and when the dust
// settles the frames, pins, replacer and counters must all agree.
func TestPageStateGrowthStress(t *testing.T) {
	leakcheck.Check(t)
	const (
		fetchers   = 3
		allocators = 2
		frames     = 32
		edge       = 8 // pages preloaded on each side of the first boundary
		newPerG    = 3 * pageChunkLen / 2
		fetchPerG  = 2000
		maxPages   = pageChunkLen + edge + allocators*newPerG
	)
	d := sim.New(sim.ServiceModel{})
	buf := make([]byte, storage.PageSize)
	for i := 0; i < pageChunkLen+edge; i++ {
		id := storagetest.MustAllocate(d)
		markPage(buf, id)
		if err := d.Write(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
	}
	r := core.NewSyncReplacer(2, core.Options{})
	p := New(d, frames, r)

	var (
		ready     [maxPages]atomic.Bool // a fresh page's image is stamped
		highest   atomic.Int64          // highest id NewPageCtx returned
		allocated atomic.Int32          // allocators done
		fetched   atomic.Uint64
		wg        sync.WaitGroup
	)
	highest.Store(pageChunkLen + edge - 1)
	errs := make(chan error, fetchers+allocators)
	for g := 0; g < allocators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer allocated.Add(1)
			for i := 0; i < newPerG; i++ {
				pg, err := p.NewPageCtx(context.Background())
				if err != nil {
					errs <- err
					return
				}
				id := pg.ID()
				pg.Latch().Lock()
				markPage(pg.Data(), id)
				pg.Latch().Unlock()
				pg.Unpin(true)
				ready[id].Store(true)
				for h := highest.Load(); int64(id) > h; h = highest.Load() {
					if highest.CompareAndSwap(h, int64(id)) {
						break
					}
				}
			}
		}()
	}
	for g := 0; g < fetchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g + 1))
			// Fetch for as long as the directory grows, and at least
			// fetchPerG times.
			for i := 0; i < fetchPerG || allocated.Load() < allocators; i++ {
				id := policy.PageID(pageChunkLen - edge + rng.Intn(2*edge))
				if i%2 == 1 {
					id = policy.PageID(highest.Load()) - policy.PageID(rng.Intn(edge))
					if !ready[id].Load() && id >= pageChunkLen+edge {
						continue
					}
				}
				pg, err := p.FetchCtx(context.Background(), id)
				if err != nil {
					errs <- err
					return
				}
				fetched.Add(1)
				pg.Latch().RLock()
				got := pageMark(pg.Data())
				pg.Latch().RUnlock()
				pg.Unpin(false)
				if got != id {
					errs <- errors.New("a fetch found another page's image")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const newPages = allocators * newPerG
	s, ds := p.Stats(), d.Stats()
	if s.Hits+s.Misses != fetched.Load()+newPages {
		t.Errorf("Hits+Misses = %d, want %d fetches + %d new pages", s.Hits+s.Misses, fetched.Load(), newPages)
	}
	if ds.Reads != s.Misses-s.Coalesced-newPages {
		t.Errorf("disk reads %d != misses %d - coalesced %d - %d new pages", ds.Reads, s.Misses, s.Coalesced, newPages)
	}
	if got, want := len(*p.dir.Load()), int(highest.Load()/pageChunkLen)+1; got != want {
		t.Errorf("directory of %d chunks, want %d for pages up to %d", got, want, highest.Load())
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
