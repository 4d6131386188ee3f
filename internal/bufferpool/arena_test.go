package bufferpool

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

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

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

// spareHolds reports whether the chunk starting at base is on the arena's
// spare list.
func spareHolds(t *testing.T, base uintptr) bool {
	t.Helper()
	taken := drainSpare(t)
	defer storage.ReleaseChunks(taken)
	for _, c := range taken {
		if chunkBase(c) == base {
			return true
		}
	}
	return false
}

func chunkBase(c []byte) uintptr { return uintptr(unsafe.Pointer(&c[0])) }

// TestFrameMemoryPlacement pins where frames live: a 4,096-frame pool (16 MB
// of frames) grows the Go heap by less than 1 MB in a normal build, whose
// arena maps its chunks, and by about the 16 MB under the race detector,
// which checks only heap addresses and so gets heap chunks.
func TestFrameMemoryPlacement(t *testing.T) {
	const frames = 4096
	const chunks = frames / storage.ChunkPages
	d := sim.New(sim.ServiceModel{})
	defer d.Close()
	var before, after runtime.MemStats
	var fresh int64
	for attempt := 0; ; attempt++ {
		// Fresh chunks only: a recycled heap chunk is already in HeapAlloc.
		held := drainSpare(t)
		n := storage.MappedChunks()
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))
		runtime.GC()
		runtime.ReadMemStats(&after)
		fresh = storage.MappedChunks() - n
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		storage.ReleaseChunks(held)
		// A finalizer may hand chunks back between the drain and New.
		if fresh == chunks || attempt == 3 {
			break
		}
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("race=%v: %d frames grew HeapAlloc by %d KB, %d fresh chunks", raceEnabled, frames, grew>>10, fresh)
	if raceEnabled {
		if grew < frames*storage.PageSize*9/10 {
			t.Errorf("race build: HeapAlloc grew %d KB for %d KB of frames (%d fresh chunks), want the frames on the heap",
				grew>>10, frames*storage.PageSize>>10, fresh)
		}
	} else if grew >= 1<<20 {
		t.Errorf("HeapAlloc grew %d KB for a %d-frame pool, want under 1 MB: frames belong in the arena", grew>>10, frames)
	}
}

// TestClosePinnedPageKeepsItsFrame closes a pool under a pinned page. The
// handle must still read its own bytes after a second pool opens and fills
// every frame it has, and the first pool's chunks must go back to the arena
// only once the handle is unpinned and the pool collected.
func TestClosePinnedPageKeepsItsFrame(t *testing.T) {
	want := bytes.Repeat([]byte{0x5A}, storage.PageSize)
	var pg Page
	base := func() uintptr {
		p := New(sim.New(sim.ServiceModel{}), 8, core.NewSyncReplacer(2, core.Options{}))
		var err error
		if pg, err = p.NewPageCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		copy(pg.Data(), want)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.FetchCtx(context.Background(), pg.ID()); !errors.Is(err, ErrClosed) {
			t.Fatalf("Fetch after Close = %v, want ErrClosed", err)
		}
		return chunkBase(p.mem.chunks[0])
	}()

	const frames = 2 * storage.ChunkPages
	p2 := New(sim.New(sim.ServiceModel{}), frames, core.NewSyncReplacer(2, core.Options{}))
	for _, c := range p2.mem.chunks {
		if chunkBase(c) == base {
			t.Fatal("a second pool took the chunk of a closed pool's pinned page")
		}
	}
	junk := bytes.Repeat([]byte{0xEE}, storage.PageSize)
	for range frames {
		q, err := p2.NewPageCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		copy(q.Data(), junk)
		q.Unpin(true)
	}
	if !bytes.Equal(pg.Data(), want) {
		t.Fatalf("pinned page reads %x… after another pool loaded, want %x…", pg.Data()[:8], want[:8])
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if spareHolds(t, base) {
		t.Fatal("a closed pool's chunk went back to the arena under a pinned page")
	}

	pg.Unpin(false)
	pg = Page{}
	for deadline := time.Now().Add(10 * time.Second); !spareHolds(t, base); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("an unreachable closed pool's chunks never went back to the arena")
		}
		runtime.GC()
	}
}

// TestCloseRacingFetches closes a pool while goroutines fetch through it,
// and opens and loads a second pool meanwhile, round after round. Every
// late fetch on the first pool returns ErrClosed or its own page's bytes,
// and every page the second pool loads reads as its own: a chunk handed
// back while a handle could still reach it would show the other pool's
// bytes, and under -race (heap chunks) a data race besides.
func TestCloseRacingFetches(t *testing.T) {
	const (
		pages    = 64
		frames   = 16
		fetchers = 4
		rounds   = 20
	)
	// stamped returns a disk of pages whose every byte is tag^id.
	stamped := func(tag byte) *sim.Manager {
		d := sim.New(sim.ServiceModel{})
		for range pages {
			id, err := d.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(context.Background(), id, bytes.Repeat([]byte{tag ^ byte(id)}, storage.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	// check fetches id and compares its bytes with stamped's.
	check := func(p *Pool, tag byte, id policy.PageID) error {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			return err
		}
		defer pg.Unpin(false)
		if want := bytes.Repeat([]byte{tag ^ byte(id)}, storage.PageSize); !bytes.Equal(pg.Data(), want) {
			t.Errorf("page %d reads %x…, want %x…", id, pg.Data()[:8], want[:8])
		}
		return nil
	}
	for round := range rounds {
		d1, d2 := stamped(0x10), stamped(0x20)
		p1 := New(d1, frames, core.NewSyncReplacer(2, core.Options{}))
		var wg sync.WaitGroup
		var fetched atomic.Int64
		for g := range fetchers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					err := check(p1, 0x10, policy.PageID((g*7+i*13)%pages))
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("round %d: fetch on the closing pool: %v", round, err)
						return
					}
					fetched.Add(1)
				}
			}()
		}
		for fetched.Load() < 100 {
			runtime.Gosched()
		}
		if err := p1.Close(); err != nil {
			t.Fatal(err)
		}
		// The second pool takes the first one's chunk if Close handed it
		// back, and loads while the first pool's late fetches finish.
		p2 := New(d2, frames, core.NewSyncReplacer(2, core.Options{}))
		for i := range 4 * pages {
			if err := check(p2, 0x20, policy.PageID(i%pages)); err != nil {
				t.Fatalf("round %d: second pool: %v", round, err)
			}
		}
		wg.Wait()
		if err := p2.Close(); err != nil {
			t.Fatal(err)
		}
		d1.Close()
		d2.Close()
	}
}
