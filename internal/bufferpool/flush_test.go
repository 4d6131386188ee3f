package bufferpool

import (
	"context"
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
		pg, err := p.Fetch(id)
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
		switch isDirty := p.frameFor(id).dirty.Load(); {
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

// TestWriterBacksOffOnPersistentFlushFailure: a failed flush quarantines
// its page, and the background writer then retries it on its doubling
// backoff. The writer's own failed retries must not kick it again, or it
// would retry in a tight loop against a disk that keeps failing.
func TestWriterBacksOffOnPersistentFlushFailure(t *testing.T) {
	leakcheck.Check(t)
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	p := NewWithConfig(d, 2, core.NewSyncReplacer(2, core.Options{}), Config{writerInterval: time.Millisecond})
	p.Start()
	dirtyAll(t, p, ids, 0xE3)
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite}))
	if err := p.FlushPage(ids[0]); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("FlushPage under a write fault = %v", err)
	}
	if got := p.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d after a failed flush, want 1", got)
	}
	// Backoff 1, 2, 4, … 64 ms: about eight retries in 200 ms.
	time.Sleep(200 * time.Millisecond)
	if got := d.Stats().WriteFaults; got < 2 || got > 30 {
		t.Errorf("%d write attempts in 200 ms, want the writer's backed-off retries (2..30)", got)
	}
	d.SetFaults(nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), ids[0], buf); err != nil || buf[1] != 0xE3 {
		t.Errorf("page after the fault cleared: byte %#x (%v), want 0xE3", buf[1], err)
	}
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
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Pages: faulted}))

	err := p.FlushAll()
	errs := joined(err)
	if err == nil || len(errs) != len(faulted) {
		t.Fatalf("FlushAll joined %d errors, want %d: %v", len(errs), len(faulted), err)
	}
	want := slices.Clone(faulted)
	slices.Sort(want)
	for i, e := range errs {
		if !errors.Is(e, storage.ErrInjectedFault) {
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
		if got := p.frameFor(id).dirty.Load(); got != bad {
			t.Errorf("page %d dirty = %v, want %v", id, got, bad)
		}
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
		if got := buf[1] == 0xD2; got == bad {
			t.Errorf("page %d on disk = %v, want %v", id, got, !bad)
		}
	}

	d.SetFaults(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got, q := b.flushes.Load(), p.Quarantined(); got != 1 || q != 0 {
		t.Errorf("after the retry: barrier ran %d times, %d quarantined; want 1 and 0", got, q)
	}
	checkFrameInvariant(t, p)
}

// markRecorder records, for each Write, whether its context carried the
// write-behind mark. A non-nil barrier replaces the backend's Flush.
type markRecorder struct {
	storage.Backend
	barrier func() error
	mu      sync.Mutex
	marks   []bool
}

func (m *markRecorder) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	m.mu.Lock()
	m.marks = append(m.marks, storage.WriteBehind(ctx))
	m.mu.Unlock()
	return m.Backend.Write(ctx, p, buf)
}

func (m *markRecorder) Flush(ctx context.Context) error {
	if m.barrier != nil {
		return m.barrier()
	}
	return m.Backend.Flush(ctx)
}

// since returns the marks of the writes after the first n.
func (m *markRecorder) since(n int) []bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.marks[n:])
}

func (m *markRecorder) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.marks)
}

// TestFlushPageAfterWriteBehindIsDurable pins FlushPage's "nil means
// durable" over a sweep that writes behind: the sweep's writes carry the
// mark, and until a barrier that began after them has completed, FlushPage
// of such a page — clean though it is — rewrites it with an unmarked
// (synchronous) write. Once a barrier completes, FlushPage of a clean page
// writes nothing.
func TestFlushPageAfterWriteBehindIsDurable(t *testing.T) {
	setup := func(t *testing.T, frames int, barrier func() error) (*Pool, *markRecorder, []policy.PageID) {
		t.Helper()
		d := newFaultyDisk(sim.ServiceModel{})
		ids := allocPages(t, d, 3)
		m := &markRecorder{Backend: d, barrier: barrier}
		p := New(m, frames, core.NewSyncReplacer(2, core.Options{}))
		dirtyAll(t, p, ids[:1], 0xB7)
		return p, m, ids
	}
	// flushPage runs FlushPage(id) and returns the marks of its writes.
	flushPage := func(t *testing.T, p *Pool, m *markRecorder, id policy.PageID) []bool {
		t.Helper()
		n := m.count()
		if err := p.FlushPage(id); err != nil {
			t.Fatalf("FlushPage(%d) = %v", id, err)
		}
		return m.since(n)
	}
	unmarked := []bool{false}

	t.Run("barrier-held", func(t *testing.T) {
		leakcheck.Check(t)
		held, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		p, m, ids := setup(t, 3, func() error {
			once.Do(func() { close(held) })
			<-release
			return nil
		})
		done := make(chan error, 1)
		go func() { done <- p.FlushAll() }()
		<-held
		if got := m.since(0); !slices.Equal(got, []bool{true}) {
			t.Errorf("sweep wrote with marks %v, want one write behind", got)
		}
		if got := flushPage(t, p, m, ids[0]); !slices.Equal(got, unmarked) {
			t.Errorf("FlushPage while the barrier is held wrote %v, want one unmarked write", got)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := flushPage(t, p, m, ids[0]); len(got) != 0 {
			t.Errorf("FlushPage of a clean page after a completed barrier wrote %v, want nothing", got)
		}
	})

	t.Run("barrier-failed", func(t *testing.T) {
		leakcheck.Check(t)
		failBarrier := errors.New("barrier refused")
		p, m, ids := setup(t, 3, func() error { return failBarrier })
		if err := p.FlushAll(); !errors.Is(err, failBarrier) {
			t.Fatalf("FlushAll = %v, want the barrier's error", err)
		}
		if got := flushPage(t, p, m, ids[0]); !slices.Equal(got, unmarked) {
			t.Errorf("FlushPage after a failed barrier wrote %v, want one unmarked write", got)
		}
	})

	t.Run("evicted-and-refetched", func(t *testing.T) {
		leakcheck.Check(t)
		failBarrier := errors.New("barrier refused")
		var fail atomic.Bool
		fail.Store(true)
		p, m, ids := setup(t, 2, func() error {
			if fail.Load() {
				return failBarrier
			}
			return nil
		})
		if err := p.FlushAll(); !errors.Is(err, failBarrier) {
			t.Fatalf("FlushAll = %v, want the barrier's error", err)
		}
		for _, id := range ids[1:] {
			pg, err := p.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			pg.Unpin(false)
		}
		if p.Resident(ids[0]) {
			t.Fatalf("page %d still resident after two fetches into two frames", ids[0])
		}
		pg, err := p.Fetch(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
		if got := flushPage(t, p, m, ids[0]); !slices.Equal(got, unmarked) {
			t.Errorf("FlushPage of a refetched page written behind wrote %v, want one unmarked write", got)
		}
		fail.Store(false)
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if got := flushPage(t, p, m, ids[0]); len(got) != 0 {
			t.Errorf("FlushPage of a clean page after a completed barrier wrote %v, want nothing", got)
		}
	})
}
