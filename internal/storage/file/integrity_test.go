package file

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// flipSlotByte mutilates one byte of page p's stored image directly in the
// page file, bypassing the WAL — simulated media rot.
func flipSlotByte(t *testing.T, s *Store, p policy.PageID, off int64) {
	t.Helper()
	var b [1]byte
	if _, err := s.pages.ReadAt(b[:], s.slotOff(p)+off); err != nil {
		t.Fatalf("reading byte to flip: %v", err)
	}
	b[0] ^= 0xFF
	if _, err := s.pages.WriteAt(b[:], s.slotOff(p)+off); err != nil {
		t.Fatalf("flipping byte: %v", err)
	}
}

func TestReadDetectsBitRot(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storagetest.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(0x5A)); err != nil {
		t.Fatal(err)
	}
	flipSlotByte(t, s, p, 100)
	buf := make([]byte, storage.PageSize)
	err := s.Read(ctx, p, buf)
	ce, ok := storage.AsCorrupt(err)
	if !ok || ce.Page != p || ce.Kind != storage.CorruptChecksum {
		t.Fatalf("read of rotted page: %v, want ErrCorrupt{%d, checksum}", err, p)
	}
}

func TestReadDetectsTrailerRot(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storagetest.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(0x77)); err != nil {
		t.Fatal(err)
	}
	flipSlotByte(t, s, p, storage.PageSize+21) // inside the stored CRC
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); !storage.IsCorrupt(err) {
		t.Fatalf("read with rotted trailer: %v, want corrupt", err)
	}
}

func TestReadDetectsMisdirectedWrite(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	a, b := storagetest.MustAllocate(s), storagetest.MustAllocate(s)
	if err := s.Write(ctx, a, pageImage(0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, b, pageImage(0xBB)); err != nil {
		t.Fatal(err)
	}
	// Copy a's whole slot (image and trailer, internally consistent) over
	// b's: the classic misdirected write. The CRC verifies; the id does not.
	slot := make([]byte, slotSize)
	if _, err := s.pages.ReadAt(slot, s.slotOff(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.pages.WriteAt(slot, s.slotOff(b)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	err := s.Read(ctx, b, buf)
	ce, ok := storage.AsCorrupt(err)
	if !ok || ce.Kind != storage.CorruptMisdirect {
		t.Fatalf("read of misdirected slot: %v, want CorruptMisdirect", err)
	}
	if err := s.Read(ctx, a, buf); err != nil {
		t.Fatalf("source page must stay intact: %v", err)
	}
}

func TestRepairPageFromWALTail(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storagetest.MustAllocate(s)
	img := pageImage(0x42)
	if err := s.Write(ctx, p, img); err != nil {
		t.Fatal(err)
	}
	flipSlotByte(t, s, p, 0)
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); !storage.IsCorrupt(err) {
		t.Fatalf("pre-repair read: %v, want corrupt", err)
	}
	// The WAL has not been checkpointed since the write: its tail holds the
	// good image.
	if err := s.RepairPage(ctx, p); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := s.Read(ctx, p, buf); err != nil {
		t.Fatalf("post-repair read: %v", err)
	}
	if !bytes.Equal(buf, img) {
		t.Error("repair restored the wrong image")
	}
}

// TestRepairPageFromLogBuffer: an image written behind waits in the log's
// buffer, not yet in the file RepairPage scans; repair writes the buffer
// out first, so a corrupt slot still heals from it.
func TestRepairPageFromLogBuffer(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	p := storagetest.MustAllocate(s)
	if err := s.Flush(ctx); err != nil { // an empty log file
		t.Fatal(err)
	}
	img := pageImage(0x43)
	if err := s.Write(storage.WithWriteBehind(ctx), p, img); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("log file holds %d bytes (%v) after a write behind, want the record still buffered", fi.Size(), err)
	}
	flipSlotByte(t, s, p, 9)
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); !storage.IsCorrupt(err) {
		t.Fatalf("pre-repair read: %v, want corrupt", err)
	}
	if err := s.RepairPage(ctx, p); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := s.Read(ctx, p, buf); err != nil || !bytes.Equal(buf, img) {
		t.Errorf("post-repair read = %#x (%v), want the image written behind", buf[0], err)
	}
}

func TestRepairPageKeepsLatestWALImage(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storagetest.MustAllocate(s)
	for fill := byte(1); fill <= 3; fill++ {
		if err := s.Write(ctx, p, pageImage(fill)); err != nil {
			t.Fatal(err)
		}
	}
	flipSlotByte(t, s, p, 7)
	if err := s.RepairPage(ctx, p); err != nil {
		t.Fatalf("repair: %v", err)
	}
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pageImage(3)) {
		t.Error("repair must replay the most recent logged image, not an older one")
	}
}

func TestRepairPageIntactIsNoop(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storagetest.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(9)); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairPage(ctx, p); err != nil {
		t.Fatalf("repair of intact page: %v", err)
	}
	if err := s.RepairPage(ctx, 99); err == nil {
		t.Error("repair of unallocated page succeeded")
	}
}

func TestUnrepairableAfterCheckpoint(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storagetest.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(0x42)); err != nil {
		t.Fatal(err)
	}
	// The checkpoint truncates the WAL: the redundant copy is gone.
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	flipSlotByte(t, s, p, 0)
	err := s.RepairPage(ctx, p)
	if !storage.IsCorrupt(err) {
		t.Fatalf("repair without a WAL image: %v, want the corruption to stand", err)
	}
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); !storage.IsCorrupt(err) {
		t.Fatalf("page must stay corrupt: %v", err)
	}
}

// writeLegacyStore lays down a pre-trailer store by hand: 4 KByte slots,
// meta.json without a format field — exactly what a store created before
// the integrity format looked like on disk.
func writeLegacyStore(t *testing.T, dir string, pages ...[]byte) {
	t.Helper()
	var blob []byte
	for _, img := range pages {
		blob = append(blob, img...)
	}
	if err := os.WriteFile(filepath.Join(dir, pagesName), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	metaJSON := []byte(`{"next_page":` + jsonInt(len(pages)) + `}`)
	if err := os.WriteFile(filepath.Join(dir, metaName), metaJSON, 0o644); err != nil {
		t.Fatal(err)
	}
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestLegacyStoreRefused: a format-0 store (the layout before integrity
// trailers) is refused at Open with an error that says what it is, and the
// refusal leaves every byte of the directory as it was — the operator can
// still take it to a release that reads it.
func TestLegacyStoreRefused(t *testing.T) {
	dir := t.TempDir()
	writeLegacyStore(t, dir, pageImage(0xA1), pageImage(0xB2))
	before := dirContents(t, dir)

	s, err := Open(dir)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a format-0 store")
	}
	for _, want := range []string{"format-0", "PR 8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
	if !maps.EqualFunc(before, dirContents(t, dir), bytes.Equal) {
		t.Error("refused Open changed the directory: a file added, removed or modified")
	}
}

// dirContents reads every file in dir.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

func TestFreshStoreUsesTrailerFormat(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := storagetest.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		t.Fatal(err)
	}
	var m meta
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Format != formatTrailer {
		t.Errorf("meta format %d, want %d persisted", m.Format, formatTrailer)
	}
	if m.Epoch == 0 {
		t.Error("write epoch not persisted across checkpoint")
	}
}

func TestOpenRefusesCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := storagetest.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("open over corrupt meta.json succeeded; must fail loudly")
	}
}

func TestOpenRefusesUnknownFormat(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir).Close()
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte(`{"format":7,"next_page":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("open with future format: %v, want unknown-format refusal", err)
	}
}

// TestOpenRefusesFreeList: a meta.json listing free pages comes from a
// writer that freed them. This version never reuses an id, so it would
// hand out ids past pages the old store meant to recycle and report the
// freed ones as live; Open refuses the store instead, untouched.
func TestOpenRefusesFreeList(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir).Close()
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte(`{"format":1,"next_page":3,"free":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	s, err := Open(dir)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a meta.json with a free list")
	}
	if !strings.Contains(err.Error(), "1 free pages") {
		t.Errorf("refusal %q does not name the free list", err)
	}
	if !maps.EqualFunc(before, dirContents(t, dir), bytes.Equal) {
		t.Error("refused Open changed the directory: a file added, removed or modified")
	}
}

func TestOpenRefusesOrphanedPageFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := storagetest.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// meta.json lost (operator mishap): the store's identity is gone, and
	// re-initialising would orphan every page silently.
	if err := os.Remove(filepath.Join(dir, metaName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("open with missing meta over live pages: %v, want refusal", err)
	}
}

func TestTornMetaPublishFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := storagetest.MustAllocate(s)
	img := pageImage(0x66)
	if err := s.Write(ctx, p, img); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-publish leaves a half-written tmp next to the last good
	// meta; the rename never happened, so the good file must win.
	if err := os.WriteFile(filepath.Join(dir, metaName+".tmp"), []byte("{ga"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	buf := make([]byte, storage.PageSize)
	if err := s2.Read(ctx, p, buf); err != nil {
		t.Fatalf("read after torn meta publish: %v", err)
	}
	if !bytes.Equal(buf, img) {
		t.Error("data lost to a stray meta tmp file")
	}
}

func TestMaxWALBytesForcesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenConfig(dir, Config{MaxWALBytes: 2 * storage.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := storagetest.MustAllocate(s)
	base := s.Stats().Checkpoints
	for i := 0; i < 8; i++ {
		if err := s.Write(ctx, p, pageImage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Checkpoints <= base {
		t.Errorf("no forced checkpoint after 8 page writes against a 2-page WAL bound (checkpoints=%d)", st.Checkpoints)
	}
	if st.WALBytes > 3*storage.PageSize {
		t.Errorf("WAL gauge %d bytes: the bound is not holding", st.WALBytes)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err == nil && fi.Size() > 3*storage.PageSize {
		t.Errorf("wal.log is %d bytes on disk: forced checkpoints are not truncating", fi.Size())
	}
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pageImage(7)) {
		t.Error("data wrong after forced checkpoints")
	}
}

func TestWALBytesGaugeResets(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storagetest.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WALBytes; got == 0 {
		t.Error("WAL gauge zero after an append")
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WALBytes; got != 0 {
		t.Errorf("WAL gauge %d after checkpoint, want 0", got)
	}
}

func TestCorruptPagesHelperAndReplayHeals(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	var ids []policy.PageID
	for i := 0; i < 6; i++ {
		p := storagetest.MustAllocate(s)
		ids = append(ids, p)
		if err := s.Write(ctx, p, pageImage(byte(0x10+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulated crash: files dropped without the Close checkpoint, so the
	// WAL still covers every write.
	s.closeFiles()

	hit, err := CorruptPages(dir, 3, 42)
	if err != nil {
		t.Fatalf("CorruptPages: %v", err)
	}
	if len(hit) != 3 {
		t.Fatalf("corrupted %d pages, want 3", len(hit))
	}
	// Determinism: the same seed picks the same victims.
	if again, _ := CorruptPages(dir, 3, 42); len(again) != 3 || again[0] != hit[0] {
		t.Errorf("same seed chose different victims: %v vs %v", again, hit)
	}

	// Recovery replays the WAL over the page file, laying fresh trailers:
	// the flipped bytes are healed without any explicit repair call.
	s2 := mustOpen(t, dir)
	defer s2.Close()
	buf := make([]byte, storage.PageSize)
	for i, p := range ids {
		if err := s2.Read(ctx, p, buf); err != nil {
			t.Fatalf("read page %d after recovery: %v", p, err)
		}
		if !bytes.Equal(buf, pageImage(byte(0x10+i))) {
			t.Errorf("page %d content wrong after recovery", p)
		}
	}
}

func TestSparseSlotReadsZero(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	// Allocate without writing: the slot is a hole (all-zero image, all-zero
	// trailer), which must verify clean, not read as corruption.
	p := storagetest.MustAllocate(s)
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); err != nil {
		t.Fatalf("read of never-written page: %v", err)
	}
	if !isZero(buf) {
		t.Error("fresh page not zero")
	}
}
