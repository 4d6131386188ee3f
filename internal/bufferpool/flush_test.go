package bufferpool

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// barrierCounter counts the pool's durability barriers and, like the file
// store, refuses a write under a done context.
type barrierCounter struct {
	storage.Backend
	flushes atomic.Int64
}

func (b *barrierCounter) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return b.Backend.Write(ctx, p, buf)
}

func (b *barrierCounter) Flush(ctx context.Context) error {
	b.flushes.Add(1)
	return b.Backend.Flush(ctx)
}

// dirtyAll makes every page of ids resident and dirty, stamping byte 1 with
// mark so a write-back is visible on disk.
func dirtyAll(t *testing.T, p *Pool, ids []policy.PageID, mark byte) {
	t.Helper()
	for _, id := range ids {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[1] = mark
		pg.Unpin(true)
	}
}

// joined returns the errors a FlushAll joined (one for an unjoined error).
func joined(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}

// TestFlushAllCancelledMidSweep: a context cancelled while the sweep's
// write-backs are in flight ends the sweep with exactly one cancellation
// error, however many workers saw it. Pages the sweep did not write stay
// dirty and resident, the barrier is skipped, and no worker outlives the
// call (leakcheck).
func TestFlushAllCancelledMidSweep(t *testing.T) {
	leakcheck.Check(t)
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Bool
	var writes atomic.Int64
	// The 8th write cancels; every later one blocks until the cancellation
	// is visible, so no page past the 8th can finish before a sweep that
	// checks ctx sees it.
	d := newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		if !armed.Load() {
			return
		}
		switch n := writes.Add(1); {
		case n == 8:
			cancel()
		case n > 8:
			<-ctx.Done()
		}
	}})
	ids := allocPages(t, d, n)
	b := &barrierCounter{Backend: d}
	p := New(b, n, core.NewSyncReplacer(2, core.Options{}))
	dirtyAll(t, p, ids, 0xC1)
	before := d.Stats().Writes
	armed.Store(true)

	err := p.FlushAllCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FlushAllCtx cancelled mid-sweep = %v, want context.Canceled", err)
	}
	if errs := joined(err); len(errs) != 1 {
		t.Errorf("FlushAllCtx joined %d errors, want the one cancellation: %v", len(errs), err)
	}
	if got := b.flushes.Load(); got != 0 {
		t.Errorf("barrier ran %d times after a cancelled sweep, want 0", got)
	}
	written := d.Stats().Writes - before
	if written < 8 || written >= n {
		t.Fatalf("%d of %d pages written, want the sweep cut short after the 8th", written, n)
	}
	buf := make([]byte, storage.PageSize)
	var onDisk, dirty uint64
	for _, id := range ids {
		if !p.Resident(id) {
			t.Errorf("page %d lost residency", id)
			continue
		}
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
		switch isDirty := p.lookup(id).dirty.Load(); {
		case buf[1] == 0xC1 && !isDirty:
			onDisk++
		case buf[1] != 0xC1 && isDirty:
			dirty++
		default:
			t.Errorf("page %d: on disk %v, dirty %v", id, buf[1] == 0xC1, isDirty)
		}
	}
	if onDisk != written || onDisk+dirty != n {
		t.Errorf("%d pages clean on disk and %d dirty, want %d and %d", onDisk, dirty, written, n-written)
	}

	// The next sweep finishes the job and takes the barrier.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := b.flushes.Load(); got != 1 {
		t.Errorf("barrier ran %d times after a clean sweep, want 1", got)
	}
	if got := d.Stats().Writes - before; got != n {
		t.Errorf("%d write-backs in all, want %d: a page was written twice or never", got, n)
	}
	checkFrameInvariant(t, p)
}

// TestFlushAllFaultsJoinedInPageOrder: when k of N write-backs fault, the
// sweep returns exactly k errors joined in page-id order, skips
// the barrier, and leaves those k pages dirty and quarantined while every
// other page ends clean on disk.
func TestFlushAllFaultsJoinedInPageOrder(t *testing.T) {
	leakcheck.Check(t)
	const n = 48
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, n)
	faulted := []policy.PageID{ids[41], ids[3], ids[29], ids[17], ids[4]}
	b := &barrierCounter{Backend: d}
	p := New(b, n, core.NewSyncReplacer(2, core.Options{}))
	dirtyAll(t, p, ids, 0xD2)
	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Pages: faulted}))

	err := p.FlushAll()
	errs := joined(err)
	if err == nil || len(errs) != len(faulted) {
		t.Fatalf("FlushAll joined %d errors, want %d: %v", len(errs), len(faulted), err)
	}
	want := slices.Clone(faulted)
	slices.Sort(want)
	for i, e := range errs {
		if !errors.Is(e, storagetest.ErrInjectedFault) {
			t.Errorf("error %d does not unwrap to the injected fault: %v", i, e)
		}
		if prefix := fmt.Sprintf("flushing page %d:", want[i]); !strings.HasPrefix(e.Error(), prefix) {
			t.Errorf("error %d = %q, want page %d (page-id order)", i, e, want[i])
		}
	}
	if got := b.flushes.Load(); got != 0 {
		t.Errorf("barrier ran %d times over failed write-backs, want 0", got)
	}
	if got := p.Quarantined(); got != len(faulted) {
		t.Errorf("Quarantined = %d, want %d", got, len(faulted))
	}
	buf := make([]byte, storage.PageSize)
	for _, id := range ids {
		bad := slices.Contains(faulted, id)
		if got := p.lookup(id).dirty.Load(); got != bad {
			t.Errorf("page %d dirty = %v, want %v", id, got, bad)
		}
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
		if got := buf[1] == 0xD2; got == bad {
			t.Errorf("page %d on disk = %v, want %v", id, got, !bad)
		}
	}

	d.SetPlan(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got, q := b.flushes.Load(), p.Quarantined(); got != 1 || q != 0 {
		t.Errorf("after the retry: barrier ran %d times, %d quarantined; want 1 and 0", got, q)
	}
	checkFrameInvariant(t, p)
}

// errNotResident is flushPage's report that the pool holds no frame for
// the page.
var errNotResident = errors.New("page not resident")

// flushPage writes page id back now if it is resident and dirty, through
// flushResident: the by-id write-back the sweep and the scrubber share.
func flushPage(ctx context.Context, p *Pool, id policy.PageID) error {
	resident, err := p.flushResident(ctx, id, false)
	if !resident {
		return fmt.Errorf("flush page %d: %w", id, errNotResident)
	}
	return err
}

// TestConcurrentSweeps: flush sweeps take no lock of their own. While
// updaters dirty pages (evictions writing some of them back) and a loader
// writes fresh pages through WriteNewPage, two goroutines sweep with
// FlushAllCtx and a third closes the pool. Every call returns nil or
// ErrClosed, each nil sweep took exactly one barrier, and when a sweep
// returns nil every update that returned before it began is on disk (or
// overtaken by a later one): flushMu alone keeps one sweep from passing a
// page another sweep is still writing. After the last call, every page not
// updated since the last nil sweep began holds its last image.
func TestConcurrentSweeps(t *testing.T) {
	leakcheck.Check(t)
	const (
		updaters   = 3
		perUpdater = 8
		frames     = 16
		minSweeps  = 40
		minFresh   = 32
		maxFresh   = 256
	)
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, updaters*perUpdater)
	b := &barrierCounter{Backend: d}
	p := New(b, frames, core.NewSyncReplacer(2, core.Options{}))
	p.Start()

	// lastImage[i] is the version of the last update of ids[i] that returned.
	// Versions only grow, and one frame's writes are serialised, so a page's
	// on-disk version only grows too.
	lastImage := make([]atomic.Uint64, len(ids))
	onDisk := func(id policy.PageID) uint64 {
		buf := make([]byte, storage.PageSize)
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Errorf("reading page %d: %v", id, err)
		}
		return binary.LittleEndian.Uint64(buf[8:])
	}
	var (
		clock, nilSweeps atomic.Int64
		mu               sync.Mutex
		fresh            []policy.PageID // in WriteNewPage return order
		lastStart        int64           // the latest-starting nil sweep's
		lastSnap         []uint64        // lastImage at its start
		lastFresh        int             // len(fresh) at its start
	)
	freshCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(fresh)
	}
	// sweep runs one sweep (FlushAllCtx or Close) and checks a nil one
	// against what had returned before it began.
	sweep := func(what string, run func() error) (closed bool) {
		snap := make([]uint64, len(ids))
		for i := range snap {
			snap[i] = lastImage[i].Load()
		}
		nFresh := freshCount()
		start := clock.Add(1)
		if err := run(); err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s = %v, want nil or ErrClosed", what, err)
			}
			return true
		}
		nilSweeps.Add(1)
		for i, id := range ids {
			if got := onDisk(id); got < snap[i] {
				t.Errorf("%s returned nil with page %d at update %d on disk, want at least %d", what, id, got, snap[i])
			}
		}
		mu.Lock()
		if start > lastStart {
			lastStart, lastSnap, lastFresh = start, snap, nFresh
		}
		mu.Unlock()
		return false
	}
	unexpected := func(what string, err error) bool {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("%s = %v, want nil or ErrClosed", what, err)
		}
		return err != nil
	}

	var wg sync.WaitGroup
	for g := range updaters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint64(1); ; v++ {
				i := g*perUpdater + int(v%perUpdater)
				pg, err := p.FetchCtx(context.Background(), ids[i])
				if unexpected("Fetch", err) {
					return
				}
				// flushMu doubles as the content latch: it excludes every
				// flusher, and the pin excludes eviction.
				pg.f.flushMu.Lock()
				binary.LittleEndian.PutUint64(pg.Data()[8:], v)
				pg.f.flushMu.Unlock()
				pg.Unpin(true)
				lastImage[i].Store(v)
			}
		}()
	}
	wg.Add(1)
	go func() { // the loader
		defer wg.Done()
		for range maxFresh {
			id, err := p.AllocatePage()
			if unexpected("AllocatePage", err) {
				return
			}
			img := make([]byte, storage.PageSize)
			binary.LittleEndian.PutUint64(img[8:], uint64(id))
			if unexpected("WriteNewPage", p.WriteNewPage(context.Background(), id, img)) {
				return
			}
			mu.Lock()
			fresh = append(fresh, id)
			mu.Unlock()
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !sweep("FlushAllCtx", func() error { return p.FlushAllCtx(context.Background()) }) {
			}
		}()
	}
	wg.Add(1)
	go func() { // the closer
		defer wg.Done()
		for nilSweeps.Load() < minSweeps || freshCount() < minFresh {
			time.Sleep(time.Millisecond)
		}
		sweep("Close", p.Close)
	}()
	wg.Wait()

	if got, want := b.flushes.Load(), nilSweeps.Load(); got != want {
		t.Errorf("%d barriers for %d nil-returning sweeps, want one each", got, want)
	}
	checked := 0
	for i, id := range ids {
		if last := lastImage[i].Load(); last == lastSnap[i] {
			checked++
			if got := onDisk(id); got != last {
				t.Errorf("page %d on disk holds update %d, want its last, %d", id, got, last)
			}
		}
	}
	for _, id := range fresh[:lastFresh] {
		if got := onDisk(id); got != uint64(id) {
			t.Errorf("fresh page %d on disk holds %d, want its own id", id, got)
		}
	}
	t.Logf("%d nil sweeps; %d pages and %d fresh pages unchanged since the last one began",
		nilSweeps.Load(), checked, lastFresh)
	for i := range p.frames {
		if n := p.frames[i].pins(); n != 0 {
			t.Errorf("frame %d left with %d pins", i, n)
		}
	}
	checkFrameInvariant(t, p)
}
