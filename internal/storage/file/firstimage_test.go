package file

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// logged returns how many records the log has taken so far.
func logged(s *Store) uint64 { return s.Stats().WALAppends }

// TestFirstImageBehindIsUnlogged: a write behind of a page allocated since
// the last checkpoint and never written is the page's first image. It goes
// to the slot alone — no record, no log byte — waits for a pages.db fsync,
// reads back verified, and survives Flush, Close and reopen. Until that
// checkpoint no logged copy exists, so RepairPage cannot heal it.
func TestFirstImageBehindIsUnlogged(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := storagetest.MustAllocate(s)
	appends, bytes0 := logged(s), s.Stats().WALBytes
	img := pageImage(0x61)
	if err := s.Write(storage.WithWriteBehind(ctx), p, img); err != nil {
		t.Fatal(err)
	}
	if got := logged(s) - appends; got != 0 || s.Stats().WALBytes != bytes0 {
		t.Errorf("a first image behind appended %d records (%d log bytes), want none", got, s.Stats().WALBytes-bytes0)
	}
	if !s.wal.unlogged.Load() {
		t.Error("no unlogged image waits for a pages.db fsync after a first image behind")
	}
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("first image reads %#x (%v), want %#x", buf[0], err, img[0])
	}

	flipSlotByte(t, s, p, 7)
	if err := s.RepairPage(ctx, p); !storage.IsCorrupt(err) {
		t.Errorf("repair of an unlogged first image = %v, want the corruption to stand", err)
	}
	flipSlotByte(t, s, p, 7) // undo the damage: the image must survive what follows

	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if s.wal.unlogged.Load() {
		t.Error("an unlogged image still waits after the checkpoint fsynced pages.db")
	}
	if err := s.Read(ctx, p, buf); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("first image after Flush reads %#x (%v), want %#x", buf[0], err, img[0])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	if err := s2.Read(ctx, p, buf); err != nil || !bytes.Equal(buf, img) {
		t.Errorf("first image after reopen reads %#x (%v), want %#x", buf[0], err, img[0])
	}
}

// TestLoggedImages: every other image is logged, one page record each, and
// RepairPage heals its slot from the record while it waits in the log's
// buffer — a page allocated before the last checkpoint (its hole is a
// durable image), a second image after an unlogged first one, and a
// synchronous first image.
func TestLoggedImages(t *testing.T) {
	behind := storage.WithWriteBehind(ctx)
	cases := []struct {
		name string
		// setup allocates the page and brings it to the state before the
		// write under test, and says whether that write is made behind.
		setup func(t *testing.T, s *Store) (p policy.PageID, writeBehind bool)
	}{
		{"allocated before a checkpoint", func(t *testing.T, s *Store) (policy.PageID, bool) {
			p := storagetest.MustAllocate(s)
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			return p, true
		}},
		{"second image", func(t *testing.T, s *Store) (policy.PageID, bool) {
			p := storagetest.MustAllocate(s)
			if err := s.Write(behind, p, pageImage(0x01)); err != nil {
				t.Fatal(err)
			}
			return p, true
		}},
		{"synchronous first image", func(t *testing.T, s *Store) (policy.PageID, bool) {
			return storagetest.MustAllocate(s), false
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			defer s.Close()
			p, writeBehind := c.setup(t, s)
			wctx := ctx
			if writeBehind {
				wctx = behind
			}
			appends := logged(s)
			img := pageImage(0x5C)
			if err := s.Write(wctx, p, img); err != nil {
				t.Fatal(err)
			}
			if got := logged(s) - appends; got != 1 {
				t.Fatalf("the write appended %d records, want its page record", got)
			}
			flipSlotByte(t, s, p, 11)
			if err := s.RepairPage(ctx, p); err != nil {
				t.Fatalf("repair: %v", err)
			}
			buf := make([]byte, storage.PageSize)
			if err := s.Read(ctx, p, buf); err != nil || !bytes.Equal(buf, img) {
				t.Errorf("repaired page reads %#x (%v), want the logged image %#x", buf[0], err, img[0])
			}
		})
	}
}

// TestSyncAfterUnloggedImageFsyncsPageFile: the group-commit leader that
// follows an unlogged first image fsyncs pages.db before the log, once; a
// leader with no such image waiting, and the one after a checkpoint, makes
// only the log's fsync.
func TestSyncAfterUnloggedImageFsyncsPageFile(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	fresh, other := storagetest.MustAllocate(s), storagetest.MustAllocate(s)
	if err := s.Write(ctx, other, pageImage(1)); err != nil {
		t.Fatal(err)
	}
	count := func() (pageSyncs, logSyncs uint64) { return s.wal.pageSyncs.Load(), s.Stats().WALSyncs }
	check := func(what string, p0, l0, wantPage, wantLog uint64) {
		t.Helper()
		if p, l := count(); p-p0 != wantPage || l-l0 != wantLog {
			t.Errorf("%s: %d pages.db and %d log fsyncs, want %d and %d", what, p-p0, l-l0, wantPage, wantLog)
		}
	}

	p0, l0 := count()
	if err := s.Write(ctx, other, pageImage(2)); err != nil {
		t.Fatal(err)
	}
	check("a synchronous write with no unlogged image waiting", p0, l0, 0, 1)

	p0, l0 = count()
	if err := s.Write(storage.WithWriteBehind(ctx), fresh, pageImage(3)); err != nil {
		t.Fatal(err)
	}
	check("an unlogged first image", p0, l0, 0, 0)
	if err := s.Write(ctx, other, pageImage(4)); err != nil {
		t.Fatal(err)
	}
	check("the synchronous write after it", p0, l0, 1, 1)
	if s.wal.unlogged.Load() {
		t.Error("the unlogged image still waits after the leader fsynced pages.db")
	}

	p0, l0 = count()
	if err := s.Write(ctx, other, pageImage(5)); err != nil {
		t.Fatal(err)
	}
	check("the next synchronous write", p0, l0, 0, 1)

	behind := storagetest.MustAllocate(s)
	if err := s.Write(storage.WithWriteBehind(ctx), behind, pageImage(6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	p0, l0 = count()
	if err := s.Write(ctx, other, pageImage(7)); err != nil {
		t.Fatal(err)
	}
	check("a synchronous write after the checkpoint", p0, l0, 0, 1)
}

// TestFirstImagesUnderConcurrency is the race detector's view of the rule:
// loaders allocate pages and write their first images behind (some of them
// a second image too), committers make synchronous writes to pages of
// their own, and checkpoints run meanwhile, so a page can stop being fresh
// between its allocation and its first write. A kill after a final
// synchronous write (the page cache kept, the log's buffer written out by
// that write) and a Close both reopen to every page's last image, verified.
func TestFirstImagesUnderConcurrency(t *testing.T) {
	const loaders, committers, perLoader, commits = 3, 2, 40, 30
	dir := t.TempDir()
	s := mustOpen(t, dir)
	behind := storage.WithWriteBehind(ctx)

	var mu sync.Mutex
	last := make(map[policy.PageID]byte) // each page's last acknowledged image
	note := func(p policy.PageID, fill byte) {
		mu.Lock()
		last[p] = fill
		mu.Unlock()
	}
	write := func(writeBehind bool, p policy.PageID, fill byte) error {
		wctx := ctx
		if writeBehind {
			wctx = behind
		}
		if err := s.Write(wctx, p, pageImage(fill)); err != nil {
			return err
		}
		buf := make([]byte, storage.PageSize)
		if err := s.Read(ctx, p, buf); err != nil || buf[0] != fill {
			return fmt.Errorf("page %d reads %#x (%v) after writing %#x", p, buf[0], err, fill)
		}
		note(p, fill)
		return nil
	}
	owned := make([][]policy.PageID, committers)
	for g := range owned {
		for range 4 {
			owned[g] = append(owned[g], storagetest.MustAllocate(s))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, loaders+committers+1)
	for g := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perLoader {
				p, err := s.Allocate()
				if err == nil {
					err = write(true, p, byte(0x10*(g+1)+i%16))
				}
				if err == nil && i%5 == 0 {
					err = write(true, p, byte(0x80+i))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := range committers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range commits {
				if err := write(false, owned[g][i%len(owned[g])], byte(0xC0+g*0x10+i%16)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done, checkpointed := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { checkpointed <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Flush(ctx); err != nil {
				errs <- err
				return
			}
			n++
		}
	}()
	wg.Wait()
	close(done)
	checkpoints := <-checkpointed
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	unlogged := st.Allocated + st.Writes - st.WALAppends
	t.Logf("%d writes, %d of them unlogged first images, %d checkpoints meanwhile", st.Writes, unlogged, checkpoints)
	if unlogged == 0 || checkpoints == 0 {
		t.Errorf("%d unlogged first images and %d checkpoints: the rule was not exercised", unlogged, checkpoints)
	}

	// The final synchronous write writes the log's buffer out, and its
	// leader fsyncs pages.db for any first image still waiting.
	if err := write(false, owned[0][0], 0xFF); err != nil {
		t.Fatal(err)
	}
	killed := copyDir(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := loaders*perLoader + committers*4
	for _, d := range []string{killed, dir} {
		r := mustOpen(t, d)
		if got := r.NumPages(); got != want {
			t.Errorf("%s: NumPages = %d, want %d", d, got, want)
		}
		buf := make([]byte, storage.PageSize)
		for p, fill := range last {
			if err := r.Read(ctx, p, buf); err != nil || !bytes.Equal(buf, pageImage(fill)) {
				t.Errorf("%s: page %d reads %#x (%v), want %#x", d, p, buf[0], err, fill)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleLogOverNewCheckpoint: a checkpoint's truncation of the log is
// lost, so recovery replays the log the checkpoint had retired over the
// checkpoint's page file, together with what was written behind after it:
// a fresh page's unlogged first image, a second image of a page written
// before the checkpoint, and a second image of the fresh page. Replay is
// redo-only and names only pages the checkpoint's meta.json already
// covers, so the store opens, every page from before the checkpoint reads
// verified — its checkpoint image or its newer whole image — and the page
// allocated after the checkpoint is trimmed away.
func TestStaleLogOverNewCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	behind := storage.WithWriteBehind(ctx)

	var old []policy.PageID
	for i := range 3 {
		p := storagetest.MustAllocate(s)
		if err := s.Write(ctx, p, pageImage(byte(0x10+i))); err != nil {
			t.Fatal(err)
		}
		old = append(old, p)
	}
	// The last synchronous write put every record in the file.
	stale, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	syncs := s.Stats().WALSyncs
	fresh := storagetest.MustAllocate(s)
	if err := s.Write(behind, fresh, pageImage(0xA1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(behind, old[1], pageImage(0xB2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(behind, fresh, pageImage(0xA2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WALSyncs; got != syncs {
		t.Fatalf("%d log fsyncs since the checkpoint, want none", got-syncs)
	}

	crashed := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(crashed, walName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(crashed)
	if err != nil {
		t.Fatalf("open over the stale log: %v", err)
	}
	defer r.Close()
	if got := r.Recovery().Replayed; got != 6 {
		t.Errorf("replayed %d records, want the stale log's 6", got)
	}
	if got := r.NumPages(); got != len(old) {
		t.Errorf("NumPages = %d, want the checkpoint's %d", got, len(old))
	}
	buf := make([]byte, storage.PageSize)
	for i, p := range old {
		if err := r.Read(ctx, p, buf); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		ok := bytes.Equal(buf, pageImage(byte(0x10+i)))
		if p == old[1] {
			ok = ok || bytes.Equal(buf, pageImage(0xB2))
		}
		if !ok {
			t.Errorf("page %d reads %#x, want its checkpoint image or its newer one", p, buf[0])
		}
	}
	if err := r.Read(ctx, fresh, buf); !errors.Is(err, storage.ErrPageNotAllocated) {
		t.Errorf("page %d allocated after the checkpoint reads (%v), want it trimmed away", fresh, err)
	}
}
