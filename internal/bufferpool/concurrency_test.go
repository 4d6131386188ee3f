package bufferpool

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// TestMissCoalescingSingleRead verifies the in-flight miss protocol: with
// the loader parked inside its disk read, every concurrent fetch of the
// same page must join the in-flight frame instead of issuing its own read.
func TestMissCoalescingSingleRead(t *testing.T) {
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
	id := storagetest.MustAllocate(d)
	buf := make([]byte, storage.PageSize)
	binary.LittleEndian.PutUint64(buf, 0xfeedface)
	if err := d.Write(context.Background(), id, buf); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)

	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	const waiters = 7
	var wg sync.WaitGroup
	errs := make(chan error, waiters+1)
	fetch := func() {
		defer wg.Done()
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			errs <- err
			return
		}
		if got := binary.LittleEndian.Uint64(pg.Data()); got != 0xfeedface {
			errs <- errors.New("coalesced fetch returned wrong data")
		}
		pg.Unpin(false)
	}
	wg.Add(1)
	go fetch() // the loader
	<-blocked  // loader is now inside disk.Read with the in-flight frame installed
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go fetch() // must all coalesce: the page stays loading until release
	}
	// Wait until every waiter has pinned the in-flight frame, then let the
	// read finish. The loader holds pin 1; each waiter adds one.
	for waitersIn := 0; waitersIn < waiters; {
		waitersIn = int(p.frameFor(id).pins()) - 1
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reads := d.Stats().Reads; reads != 1 {
		t.Errorf("concurrent same-page misses issued %d disk reads, want 1", reads)
	}
	s := p.Stats()
	if s.Coalesced != waiters {
		t.Errorf("Coalesced = %d, want %d", s.Coalesced, waiters)
	}
	if s.Misses != waiters+1 || s.Hits != 0 {
		t.Errorf("stats %+v, want %d misses 0 hits", s, waiters+1)
	}
}

// TestPoolMatchesSerialOnDeterministicTrace replays one deterministic
// single-threaded trace (fetches, dirtying writes, flushes) through the
// single-latch Serial pool and the concurrent Pool: every counter — pool
// and disk — must agree exactly, because the concurrent replacer makes the
// plain Replacer's decisions on a serialisable history.
func TestPoolMatchesSerialOnDeterministicTrace(t *testing.T) {
	const (
		frames = 50
		pages  = 800
		refs   = 40000
	)
	type step struct {
		id    policy.PageID
		dirty bool
		flush bool
	}
	r := stats.NewRNG(7)
	script := make([]step, refs)
	for i := range script {
		var id policy.PageID
		if i%2 == 0 {
			id = policy.PageID(r.Intn(40)) // hot set
		} else {
			id = policy.PageID(40 + r.Intn(pages-40))
		}
		script[i] = step{id: id, dirty: i%7 == 6, flush: i%997 == 996}
	}

	// FlushAll walks map snapshots in hash order, so the write *order* of
	// the final flush — and with it the seek-discount component of
	// ServiceMicros — is not deterministic even run to run. Compare full
	// disk stats at the trace end, and only the I/O counts after FlushAll.
	type outcome struct {
		pool       Stats
		trace      storage.Stats
		finalReads uint64
		finalWrite uint64
	}
	runSerial := func() outcome {
		d := newFaultyDisk(sim.ServiceModel{})
		for i := 0; i < pages; i++ {
			d.Allocate()
		}
		p := NewSerial(d, frames, core.NewReplacer(2, core.Options{}))
		for _, st := range script {
			pg, err := p.Fetch(st.id)
			if err != nil {
				t.Fatal(err)
			}
			if st.dirty {
				pg.Data()[0]++
			}
			pg.Unpin(st.dirty)
			if st.flush {
				if err := p.FlushPage(st.id); err != nil {
					t.Fatal(err)
				}
			}
		}
		trace := d.Stats()
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return outcome{p.Stats(), trace, d.Stats().Reads, d.Stats().Writes}
	}
	runConcurrent := func() outcome {
		d := newFaultyDisk(sim.ServiceModel{})
		for i := 0; i < pages; i++ {
			d.Allocate()
		}
		p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))
		for _, st := range script {
			pg, err := p.FetchCtx(context.Background(), st.id)
			if err != nil {
				t.Fatal(err)
			}
			if st.dirty {
				pg.Data()[0]++
			}
			pg.Unpin(st.dirty)
			if st.flush {
				if err := flushPage(context.Background(), p, st.id); err != nil {
					t.Fatal(err)
				}
			}
		}
		trace := d.Stats()
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return outcome{p.Stats(), trace, d.Stats().Reads, d.Stats().Writes}
	}

	want, got := runSerial(), runConcurrent()
	if got.pool != want.pool {
		t.Errorf("pool stats %+v, want %+v", got.pool, want.pool)
	}
	if got.trace != want.trace {
		t.Errorf("disk stats %+v, want %+v", got.trace, want.trace)
	}
	if got.finalReads != want.finalReads || got.finalWrite != want.finalWrite {
		t.Errorf("post-flush I/O counts (%d,%d), want (%d,%d)",
			got.finalReads, got.finalWrite, want.finalReads, want.finalWrite)
	}
	if got.pool.Coalesced != 0 {
		t.Errorf("single-threaded replay coalesced %d misses", got.pool.Coalesced)
	}
}

// TestPoolConcurrentStressRace hammers the pool from many goroutines with
// a mix of shared read-only pages and per-goroutine private read/write
// pages, plus flushes and metadata queries, then checks data integrity and
// the exact accounting identity Reads == Misses - Coalesced.
func TestPoolConcurrentStressRace(t *testing.T) {
	const (
		goroutines = 12
		sharedN    = 96
		iters      = 4000
		frames     = 48
	)
	d := newFaultyDisk(sim.ServiceModel{})
	shared := make([]policy.PageID, sharedN)
	buf := make([]byte, storage.PageSize)
	for i := range shared {
		shared[i] = storagetest.MustAllocate(d)
		binary.LittleEndian.PutUint64(buf, uint64(shared[i]))
		if err := d.Write(context.Background(), shared[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	private := make([]policy.PageID, goroutines)
	for i := range private {
		private[i] = storagetest.MustAllocate(d)
		clear(buf)
		if err := d.Write(context.Background(), private[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	setupWrites := d.Stats().Writes

	p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))
	var fetched atomic.Uint64
	writes := make([]uint64, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(g + 1))
			own := private[g]
			for i := 0; i < iters; i++ {
				switch op := r.Intn(100); {
				case op < 65: // shared read
					id := shared[r.Intn(sharedN)]
					pg, err := p.FetchCtx(context.Background(), id)
					if err != nil {
						if errors.Is(err, ErrNoFreeFrame) {
							continue
						}
						errs <- err
						return
					}
					fetched.Add(1)
					if got := binary.LittleEndian.Uint64(pg.Data()); got != uint64(id) {
						errs <- errors.New("shared page holds another page's data")
						pg.Unpin(false)
						return
					}
					pg.Unpin(false)
				case op < 85: // private read-modify-write
					pg, err := p.FetchCtx(context.Background(), own)
					if err != nil {
						if errors.Is(err, ErrNoFreeFrame) {
							continue
						}
						errs <- err
						return
					}
					fetched.Add(1)
					got := binary.LittleEndian.Uint64(pg.Data())
					if got != writes[g] {
						errs <- errors.New("private page lost writes")
						pg.Unpin(false)
						return
					}
					binary.LittleEndian.PutUint64(pg.Data(), got+1)
					writes[g]++
					pg.Unpin(true)
				case op < 92: // flush own page
					if err := flushPage(context.Background(), p, own); err != nil && !errors.Is(err, errNotResident) {
						errs <- err
						return
					}
				default: // metadata queries race along
					p.Resident(shared[r.Intn(sharedN)])
					p.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	ds := d.Stats() // capture before the verification reads below
	// Every private counter must equal that goroutine's successful writes.
	for g, id := range private {
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != writes[g] {
			t.Errorf("goroutine %d: page holds %d, wrote %d times", g, got, writes[g])
		}
	}
	if s.Hits+s.Misses != fetched.Load() {
		t.Errorf("Hits+Misses = %d, want %d successful fetches", s.Hits+s.Misses, fetched.Load())
	}
	if ds.Reads != s.Misses-s.Coalesced {
		t.Errorf("disk reads %d != misses %d - coalesced %d", ds.Reads, s.Misses, s.Coalesced)
	}
	if s.WriteBacks != ds.Writes-setupWrites {
		t.Errorf("WriteBacks %d != disk writes %d", s.WriteBacks, ds.Writes-setupWrites)
	}
	if s.Evictions > s.Misses {
		t.Errorf("Evictions %d exceed Misses %d", s.Evictions, s.Misses)
	}
}

// TestWriteBackVictimNotReadableStale checks the frameWriting protocol: a
// fetch racing an in-flight dirty write-back must wait it out and then
// read the freshly written bytes, never the stale disk copy.
func TestWriteBackVictimNotReadableStale(t *testing.T) {
	var gate atomic.Bool
	inWrite := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	d := newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		if gate.Load() {
			once.Do(func() { close(inWrite) })
			<-release
		}
	}})
	victim := storagetest.MustAllocate(d)
	other := storagetest.MustAllocate(d)
	p := New(d, 1, core.NewSyncReplacer(2, core.Options{})) // one frame: every miss evicts

	pg, err := p.FetchCtx(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("fresh"))
	pg.Unpin(true) // dirty, evictable
	gate.Store(true)

	done := make(chan error, 1)
	go func() {
		// Evicts the dirty victim; its write-back parks on the gate.
		pg, err := p.FetchCtx(context.Background(), other)
		if err == nil {
			pg.Unpin(false)
		}
		done <- err
	}()
	<-inWrite // write-back in flight; victim is in frameWriting

	raced := make(chan error, 1)
	go func() {
		// Must block until the write-back completes, then re-read "fresh".
		pg, err := p.FetchCtx(context.Background(), victim)
		if err != nil {
			raced <- err
			return
		}
		defer pg.Unpin(false)
		if string(pg.Data()[:5]) != "fresh" {
			raced <- errors.New("fetch during write-back returned stale data")
			return
		}
		raced <- nil
	}()
	gate.Store(false)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-raced; err != nil && !errors.Is(err, ErrNoFreeFrame) {
		t.Fatal(err)
	}
}

// TestHotArraySizedByFrames: the hot array has the smallest power of two
// at least twice the frame count slots, whatever GOMAXPROCS is.
func TestHotArraySizedByFrames(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	for frames, want := range map[int]int{1: 2, 2: 4, 3: 8, 404: 1024, 512: 1024, 513: 2048} {
		p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))
		if got := len(p.hot); got != want {
			t.Errorf("%d frames: %d hot slots, want %d", frames, got, want)
		}
		p.Close()
	}
}
