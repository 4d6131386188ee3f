package storage_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// junkChunks fills every page of n chunks with 0xEE through a simulated disk
// and closes it, so the arena's next n takes are those chunks, junk and all.
func junkChunks(t *testing.T, n int) {
	t.Helper()
	d := sim.New(sim.ServiceModel{})
	junk := bytes.Repeat([]byte{0xEE}, storage.PageSize)
	for i := 0; i < n*storage.ChunkPages; i++ {
		if err := d.Write(ctx, storagetest.MustAllocate(d), junk); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// image is page p's test contents: p in the first 8 bytes, then p|1.
func image(p policy.PageID) []byte {
	img := bytes.Repeat([]byte{byte(p) | 1}, storage.PageSize)
	binary.LittleEndian.PutUint64(img, uint64(p))
	return img
}

// TestRecycledChunksReadAsZeros fills three chunks with junk and hands them
// back; the arena's next users take the same chunks, which nothing clears.
// A second disk must read every page it never wrote as zeros and every page
// it wrote exactly. A pool whose frames are cut from them must show zeros
// through NewPage, nothing through a failed read, and exactly the disk's
// bytes through a load into a frame that held another page.
func TestRecycledChunksReadAsZeros(t *testing.T) {
	zeros := make([]byte, storage.PageSize)
	t.Run("disk", func(t *testing.T) {
		const pages = 2*storage.ChunkPages + 7 // three chunks
		junkChunks(t, 3)
		before := storage.MappedChunks()
		b := sim.New(sim.ServiceModel{})
		defer b.Close()
		for i := 0; i < pages; i++ {
			if p := storagetest.MustAllocate(b); p%3 == 0 {
				if err := b.Write(ctx, p, image(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := storage.MappedChunks() - before; n != 0 {
			t.Fatalf("the second disk mapped %d new chunks: it did not take the junk ones", n)
		}
		buf := make([]byte, storage.PageSize)
		for p := policy.PageID(0); p < pages; p++ {
			want := zeros
			if p%3 == 0 {
				want = image(p)
			}
			if err := b.Read(ctx, p, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("page %d reads %x…, want %x…", p, buf[:8], want[:8])
			}
		}
	})
	t.Run("pool", func(t *testing.T) {
		const frames = 2 * storage.ChunkPages
		junkChunks(t, 4) // two for the frames, two for the pool's disk
		before := storage.MappedChunks()
		d := &junkOnFail{Backend: sim.New(sim.ServiceModel{})}
		p := bufferpool.New(d, frames, core.NewSyncReplacer(2, core.Options{}))
		defer d.Close()
		defer p.Close()
		for i := 0; i < frames; i++ {
			pg, err := p.NewPageCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pg.Data(), zeros) {
				t.Fatalf("new page %d shows %x… in its frame", pg.ID(), pg.Data()[:8])
			}
			copy(pg.Data(), image(pg.ID()))
			pg.Unpin(true)
		}
		if n := storage.MappedChunks() - before; n != 0 {
			t.Fatalf("the pool and its disk mapped %d new chunks: they did not take the junk ones", n)
		}
		x, err := p.AllocatePage()
		if err != nil {
			t.Fatal(err)
		}
		// The failed load scribbles junk over the frame it evicted into.
		d.fail.Store(true)
		if pg, err := p.FetchCtx(context.Background(), x); err == nil || pg != (bufferpool.Page{}) {
			t.Fatalf("a failed read returned a handle (err %v)", err)
		}
		d.fail.Store(false)
		// That frame is free now, and the next NewPage takes it.
		pg, err := p.NewPageCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pg.Data(), zeros) {
			t.Fatalf("new page %d shows a failed read's %x…", pg.ID(), pg.Data()[:8])
		}
		pg.Unpin(false)
		// x lands in a frame that held another page's image, and reads as
		// the zeros the disk holds for it.
		if pg, err = p.FetchCtx(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pg.Data(), zeros) {
			t.Fatalf("page %d loads as %x…, want zeros", x, pg.Data()[:8])
		}
		pg.Unpin(false)
		if pg, err = p.FetchCtx(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pg.Data(), image(0)) {
			t.Fatalf("page 0 loads as %x…, want %x…", pg.Data()[:8], image(0)[:8])
		}
		pg.Unpin(false)
	})
}

// junkOnFail is a disk whose reads, while fail is set, fill the caller's
// buffer with junk and then fail.
type junkOnFail struct {
	storage.Backend
	fail atomic.Bool
}

func (j *junkOnFail) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if j.fail.Load() {
		for i := range buf {
			buf[i] = 0xEE
		}
		return errors.New("injected read failure")
	}
	return j.Backend.Read(ctx, p, buf)
}
