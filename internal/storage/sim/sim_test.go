package sim

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

var ctx = context.Background()

func TestAllocateReadWrite(t *testing.T) {
	m := New(ServiceModel{})
	p := storagetest.MustAllocate(m)
	buf := make([]byte, PageSize)
	if err := m.Read(ctx, p, buf); err != nil {
		t.Fatalf("read fresh page: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Error("fresh page not zeroed")
	}
	data := make([]byte, PageSize)
	copy(data, []byte("hello, buffer manager"))
	if err := m.Write(ctx, p, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := m.Read(ctx, p, buf); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("read back differs from write")
	}
}

func TestDistinctPages(t *testing.T) {
	m := New(ServiceModel{})
	a, b := storagetest.MustAllocate(m), storagetest.MustAllocate(m)
	if a == b {
		t.Fatal("Allocate returned duplicate ids")
	}
	da := make([]byte, PageSize)
	da[0] = 'a'
	if err := m.Write(ctx, a, da); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := m.Read(ctx, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("write to one page leaked into another")
	}
	if m.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", m.NumPages())
	}
}

func TestUnallocatedAccess(t *testing.T) {
	m := New(ServiceModel{})
	buf := make([]byte, PageSize)
	if err := m.Read(ctx, 999, buf); !errors.Is(err, storage.ErrPageNotAllocated) {
		t.Errorf("read unallocated: %v", err)
	}
	if err := m.Write(ctx, 999, buf); !errors.Is(err, storage.ErrPageNotAllocated) {
		t.Errorf("write unallocated: %v", err)
	}
}

func TestBadBufferSize(t *testing.T) {
	m := New(ServiceModel{})
	p := storagetest.MustAllocate(m)
	if err := m.Read(ctx, p, make([]byte, 10)); err == nil {
		t.Error("short read buffer accepted")
	}
	if err := m.Write(ctx, p, make([]byte, PageSize+1)); err == nil {
		t.Error("long write buffer accepted")
	}
}

func TestServiceModelSequentialDiscount(t *testing.T) {
	m := New(ServiceModel{SeekMicros: 10000, TransferMicros: 100})
	for i := 0; i < 10; i++ {
		m.Allocate()
	}
	buf := make([]byte, PageSize)
	// Random-order reads: every op pays the seek.
	_ = m.Read(ctx, 5, buf)
	_ = m.Read(ctx, 2, buf)
	_ = m.Read(ctx, 8, buf)
	random := m.Stats().ServiceMicros
	if want := int64(3 * 10100); random != want {
		t.Errorf("random reads cost %d, want %d", random, want)
	}
	// Sequential reads 0..9: only the first pays the seek.
	m2 := New(ServiceModel{SeekMicros: 10000, TransferMicros: 100})
	for i := 0; i < 10; i++ {
		m2.Allocate()
	}
	for i := 0; i < 10; i++ {
		_ = m2.Read(ctx, policy.PageID(i), buf)
	}
	seq := m2.Stats().ServiceMicros
	if want := int64(10000 + 10*100); seq != want {
		t.Errorf("sequential reads cost %d, want %d", seq, want)
	}
}

func TestStatsCounters(t *testing.T) {
	m := New(ServiceModel{})
	p := storagetest.MustAllocate(m)
	buf := make([]byte, PageSize)
	for i := 0; i < 3; i++ {
		_ = m.Read(ctx, p, buf)
	}
	for i := 0; i < 2; i++ {
		_ = m.Write(ctx, p, buf)
	}
	s := m.Stats()
	if s.Reads != 3 || s.Writes != 2 {
		t.Errorf("stats %+v, want 3 reads 2 writes", s)
	}
}

// TestConcurrentAccess races reads and writes of shared pages against
// fresh allocations, and so against the chunk table's growth, across
// stripes: every operation is counted, no page is lost, and the chunks
// taken are the ones the pages need.
func TestConcurrentAccess(t *testing.T) {
	m := New(ServiceModel{})
	const pages, fresh = 32, 100 // fresh: allocations per goroutine
	for i := 0; i < pages; i++ {
		m.Allocate()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 1000; i++ {
				if i%(1000/fresh) == 0 {
					q := storagetest.MustAllocate(m)
					buf[0] = byte(i)
					if err := m.Write(ctx, q, buf); err != nil {
						t.Error(err)
						return
					}
					if err := m.Read(ctx, q, buf); err != nil || buf[0] != byte(i) {
						t.Errorf("fresh page %d read back %d, %v", q, buf[0], err)
						return
					}
				}
				p := policy.PageID((g*7 + i) % pages)
				if i%3 == 0 {
					buf[0] = byte(g)
					if err := m.Write(ctx, p, buf); err != nil {
						t.Error(err)
						return
					}
				} else if err := m.Read(ctx, p, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := m.Stats()
	if got, want := s.Reads+s.Writes, uint64(8000+8*fresh*2); got != want {
		t.Errorf("total ops %d, want %d", got, want)
	}
	total := pages + 8*fresh
	if s.Allocated != uint64(total) || m.NumPages() != total {
		t.Errorf("allocated %d, NumPages %d, want %d", s.Allocated, m.NumPages(), total)
	}
	if got, want := len(*m.mem.table.Load()), (total+storage.ChunkPages-1)/storage.ChunkPages; got != want {
		t.Errorf("%d chunks for %d pages, want %d", got, total, want)
	}
}

// TestDelayHookReceivesServiceTime verifies the injectable latency model:
// the hook fires once per priced operation with that operation's service
// micros, summing to the manager's ServiceMicros counter.
func TestDelayHookReceivesServiceTime(t *testing.T) {
	var calls int
	var total int64
	m := New(ServiceModel{
		SeekMicros:     10000,
		TransferMicros: 100,
		Delay: func(micros int64) {
			calls++
			total += micros
		},
	})
	for i := 0; i < 4; i++ {
		m.Allocate()
	}
	buf := make([]byte, PageSize)
	_ = m.Read(ctx, 3, buf)  // seek + transfer
	_ = m.Write(ctx, 0, buf) // seek + transfer
	_ = m.Read(ctx, 1, buf)  // sequential: transfer only
	if calls != 3 {
		t.Errorf("Delay fired %d times, want 3", calls)
	}
	if want := m.Stats().ServiceMicros; total != want {
		t.Errorf("Delay saw %d micros total, ServiceMicros is %d", total, want)
	}
	if want := int64(2*10100 + 100); total != want {
		t.Errorf("Delay saw %d micros, want %d", total, want)
	}
}

// TestPagesLiveOffHeap pins where page images live: writing 10 MB of pages
// must not grow the Go heap by the disk's size. Race builds keep page
// memory on the heap (the race detector checks only heap addresses), so
// there every chunk the disk maps must show in the heap instead.
func TestPagesLiveOffHeap(t *testing.T) {
	const pages = 10 * storage.ChunkPages // 10 MB
	// Hold the spare chunks, so the disk obtains its own.
	defer storage.ReleaseChunks(drainSpare(t))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mapped := storage.MappedChunks()
	m := New(ServiceModel{})
	defer m.Close()
	buf := bytes.Repeat([]byte{0x5A}, PageSize)
	for i := 0; i < pages; i++ {
		if err := m.Write(ctx, storagetest.MustAllocate(m), buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if fresh := storage.MappedChunks() - mapped; raceEnabled {
		if grew < fresh*storage.ChunkBytes*9/10 {
			t.Errorf("race build: %d new chunks grew the heap by %.1f MB, want them on it", fresh, float64(grew)/(1<<20))
		}
	} else if grew >= 1<<20 {
		t.Errorf("%d pages (%d MB) grew the heap by %.1f MB, want < 1 MB", pages, pages*PageSize>>20, float64(grew)/(1<<20))
	}
	runtime.KeepAlive(m)
}

// TestClosedManagerRefusesOps pins the lifecycle: after Close every
// operation fails and none reaches the page memory, which the next manager
// now owns; a second Close is a no-op.
func TestClosedManagerRefusesOps(t *testing.T) {
	old := New(ServiceModel{})
	p := storagetest.MustAllocate(old)
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	m := New(ServiceModel{})
	defer m.Close()
	q := storagetest.MustAllocate(m) // likely carved from old's chunk
	junk := bytes.Repeat([]byte{0xEE}, PageSize)
	if err := old.Write(ctx, p, junk); !errors.Is(err, errClosed) {
		t.Errorf("write after Close: %v", err)
	}
	if err := old.Read(ctx, p, make([]byte, PageSize)); !errors.Is(err, errClosed) {
		t.Errorf("read after Close: %v", err)
	}
	if _, err := old.Allocate(); !errors.Is(err, errClosed) {
		t.Errorf("allocate after Close: %v", err)
	}
	if n := old.NumPages(); n != 0 {
		t.Errorf("NumPages after Close = %d, want 0", n)
	}
	buf := make([]byte, PageSize)
	if err := m.Read(ctx, q, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Error("a closed manager's write reached the next manager's page")
	}
}

// TestCloseRacesReadWrite closes a manager under concurrent reads and
// writes: an operation either completes or fails with errClosed, one that
// starts after Close returns fails, and the race detector sees the stripe
// latches order Close after each of them.
func TestCloseRacesReadWrite(t *testing.T) {
	const pages = 64
	m := New(ServiceModel{})
	for i := 0; i < pages; i++ {
		storagetest.MustAllocate(m)
	}
	var closed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; ; i++ {
				p := policy.PageID((g*17 + i) % pages)
				after := closed.Load()
				var err error
				if i%2 == 0 {
					buf[0] = byte(i)
					err = m.Write(ctx, p, buf)
				} else {
					err = m.Read(ctx, p, buf)
				}
				switch {
				case err == nil && after:
					t.Errorf("op %d started after Close and succeeded", i)
					return
				case err != nil:
					if !errors.Is(err, errClosed) {
						t.Errorf("op %d during Close: %v", i, err)
					}
					return
				}
			}
		}(g)
	}
	for s := m.Stats(); s.Reads+s.Writes < 2000; s = m.Stats() {
		runtime.Gosched()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	wg.Wait()
}

// TestUnclosedManagerReturnsChunks drops a manager without closing it: the
// finalizer must hand its chunks back to the arena, and the next manager
// takes them instead of mapping new ones.
func TestUnclosedManagerReturnsChunks(t *testing.T) {
	const pages = 2*storage.ChunkPages + 1 // three chunks
	held := func() []uintptr {
		m := New(ServiceModel{})
		for i := 0; i < pages; i++ {
			storagetest.MustAllocate(m)
		}
		return chunkBases(m)
	}()
	spareHolds := func() bool {
		in := spareChunks(t)
		for _, b := range held {
			if !in[b] {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !spareHolds(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("an unreachable manager's chunks never reached the spare list")
		}
		runtime.GC()
	}
	before := storage.MappedChunks()
	m := New(ServiceModel{})
	defer m.Close()
	for i := 0; i < pages; i++ {
		storagetest.MustAllocate(m)
	}
	if n := storage.MappedChunks() - before; n != 0 {
		t.Errorf("second manager mapped %d new chunks with %d spare, want 0", n, len(held))
	}
}

// drainSpare takes every chunk on the arena's spare list, and one new chunk
// after them, so that the next TakeChunk maps a fresh one. The caller hands
// them back with storage.ReleaseChunks.
func drainSpare(t *testing.T) [][]byte {
	t.Helper()
	var taken [][]byte
	for n := storage.MappedChunks(); storage.MappedChunks() == n; {
		c, err := storage.TakeChunk()
		if err != nil {
			t.Fatal(err)
		}
		taken = append(taken, c)
	}
	return taken
}

// spareChunks returns the base address of each chunk on the arena's spare
// list.
func spareChunks(t *testing.T) map[uintptr]bool {
	t.Helper()
	taken := drainSpare(t)
	defer storage.ReleaseChunks(taken)
	in := make(map[uintptr]bool)
	for _, c := range taken {
		in[uintptr(unsafe.Pointer(&c[0]))] = true
	}
	return in
}

// chunkBases returns the base address of each of m's chunks.
func chunkBases(m *Manager) []uintptr {
	var bases []uintptr
	for _, c := range *m.mem.table.Load() {
		bases = append(bases, uintptr(unsafe.Pointer(&c.mem[0])))
	}
	return bases
}

// TestOpsAllocateNothing guards the disk's share of the request path: Read
// and Write allocate nothing, nor does Allocate away from a chunk boundary.
func TestOpsAllocateNothing(t *testing.T) {
	m := New(ServiceModel{})
	defer m.Close()
	written, fresh := storagetest.MustAllocate(m), storagetest.MustAllocate(m)
	buf := make([]byte, PageSize)
	for name, op := range map[string]func() error{
		"Write":          func() error { return m.Write(ctx, written, buf) },
		"Read":           func() error { return m.Read(ctx, written, buf) },
		"Read unwritten": func() error { return m.Read(ctx, fresh, buf) },
		"Allocate": func() error {
			_, err := m.Allocate()
			return err
		},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s allocates %.2f times per call, want 0", name, got)
		}
	}
	if n := m.NumPages(); n > storage.ChunkPages {
		t.Fatalf("%d pages cross a chunk boundary", n)
	}
}

// TestBackendInterface pins that the manager satisfies the full contract,
// durable extras excluded.
func TestBackendInterface(t *testing.T) {
	var b storage.Backend = New(ServiceModel{})
	if err := b.Flush(ctx); err != nil {
		t.Errorf("Flush: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, ok := b.(storage.DurableBackend); ok {
		t.Error("simulator claims durability")
	}
}
