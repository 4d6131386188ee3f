package heapfile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

func newFile(t *testing.T, frames int) *File {
	t.Helper()
	d := sim.New(sim.ServiceModel{})
	pool := bufferpool.New(d, frames, core.NewSyncReplacer(2, core.Options{}))
	return New(pool)
}

func TestInsertGetRoundTrip(t *testing.T) {
	f := newFile(t, 8)
	recs := [][]byte{
		[]byte("alpha"),
		[]byte("beta"),
		bytes.Repeat([]byte("x"), 1000),
		{0},
	}
	var rids []RID
	for _, r := range recs {
		rid, err := f.Insert(r)
		if err != nil {
			t.Fatalf("Insert(%d bytes): %v", len(r), err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := f.GetCtx(context.Background(), rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("record %d mismatch: %q vs %q", i, got, recs[i])
		}
	}
}

func TestInsertValidation(t *testing.T) {
	f := newFile(t, 4)
	if _, err := f.Insert(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := f.Insert(make([]byte, MaxRecord+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized record: %v", err)
	}
	if _, err := f.Insert(make([]byte, MaxRecord)); err != nil {
		t.Errorf("max-size record rejected: %v", err)
	}
}

func TestPageOverflowAllocatesNewPage(t *testing.T) {
	f := newFile(t, 8)
	// Each record fills most of a page, forcing one page per record.
	big := make([]byte, 3000)
	r1, _ := f.Insert(big)
	r2, _ := f.Insert(big)
	if r1.Page == r2.Page {
		t.Error("two 3000-byte records on one 4096-byte page")
	}
	if len(f.Pages()) != 2 {
		t.Errorf("Pages = %d, want 2", len(f.Pages()))
	}
}

func TestGetInvalidRID(t *testing.T) {
	f := newFile(t, 4)
	rid, _ := f.Insert([]byte("x"))
	if _, err := f.GetCtx(context.Background(), RID{Page: rid.Page, Slot: 7}); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("bad slot: %v", err)
	}
	if _, err := f.GetCtx(context.Background(), RID{Page: 999, Slot: 0}); err == nil {
		t.Error("bad page accepted")
	}
}

// TestScanVisitsAllLiveRecords: a scan visits every record and skips a
// tombstoned slot, as it would find one in a page written by a store that
// deleted records; GetCtx refuses the same slot.
func TestScanVisitsAllLiveRecords(t *testing.T) {
	f := newFile(t, 8)
	want := map[string]bool{}
	var dead RID
	for i := 0; i < 500; i++ {
		rec := fmt.Sprintf("record-%04d", i)
		rid, err := f.Insert([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if i == 250 {
			dead = rid
		} else {
			want[rec] = true
		}
	}
	pg, err := f.pool.Fetch(dead.Page)
	if err != nil {
		t.Fatal(err)
	}
	off, length := slotAt(pg.Data(), dead.Slot)
	setSlot(pg.Data(), dead.Slot, off|tombstone, length)
	pg.Unpin(true)
	if _, err := f.GetCtx(context.Background(), dead); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("GetCtx of a tombstoned slot: %v, want ErrInvalidRID", err)
	}
	got := map[string]bool{}
	err = f.ScanCtx(context.Background(), func(rid RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
	for rec := range want {
		if !got[rec] {
			t.Errorf("scan missed %q", rec)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	f := newFile(t, 8)
	for i := 0; i < 10; i++ {
		if _, err := f.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	_ = f.ScanCtx(context.Background(), func(RID, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d records after early stop, want 3", n)
	}
}

// TestSurvivesEviction: with a tiny pool, records must round-trip through
// disk write-back.
func TestSurvivesEviction(t *testing.T) {
	f := newFile(t, 2)
	var rids []RID
	for i := 0; i < 300; i++ {
		rid, err := f.Insert([]byte(fmt.Sprintf("persist-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := f.GetCtx(context.Background(), rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if want := fmt.Sprintf("persist-%03d", i); string(got) != want {
			t.Errorf("record %d = %q, want %q", i, got, want)
		}
	}
}

// TestQuickInsertGet is a property test: any batch of random records
// round-trips.
func TestQuickInsertGet(t *testing.T) {
	f := newFile(t, 16)
	check := func(recs [][]byte) bool {
		var rids []RID
		var kept [][]byte
		for _, r := range recs {
			if len(r) == 0 || len(r) > 2000 {
				continue
			}
			rid, err := f.Insert(r)
			if err != nil {
				return false
			}
			rids = append(rids, rid)
			kept = append(kept, r)
		}
		for i, rid := range rids {
			got, err := f.GetCtx(context.Background(), rid)
			if err != nil || !bytes.Equal(got, kept[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAppendCtx: the append form is the one record read — it extends dst
// in place after its prefix, nil dst equals GetCtx, and errors hand dst back.
func TestAppendCtx(t *testing.T) {
	f := newFile(t, 8)
	rid, err := f.Insert([]byte("record-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	buf := append(make([]byte, 0, 64), "hdr|"...)
	out, err := f.AppendCtx(ctx, buf, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hdr|record-bytes" {
		t.Errorf("AppendCtx = %q", out)
	}
	if &out[0] != &buf[:1][0] {
		t.Error("AppendCtx reallocated a dst with room")
	}
	got, err := f.AppendCtx(ctx, nil, rid)
	want, err2 := f.GetCtx(ctx, rid)
	if err != nil || err2 != nil || !bytes.Equal(got, want) {
		t.Errorf("nil dst = %q (%v), GetCtx = %q (%v)", got, err, want, err2)
	}
	out, err = f.AppendCtx(ctx, buf, RID{Page: rid.Page, Slot: 99})
	if !errors.Is(err, ErrInvalidRID) || string(out) != "hdr|" {
		t.Errorf("bad slot: out %q err %v, want dst unchanged + ErrInvalidRID", out, err)
	}
}

// TestFillCtx: a fill references the record's page exactly twice (the read,
// then the write). With flush it writes the record and the page through to
// the backend in one pinned step — the image on disk carries the fill the
// moment it returns, the page is left clean (no second write at eviction) —
// and without it the page is left dirty. Validation failures write nothing.
func TestFillCtx(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	pool := bufferpool.New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	f := New(pool)
	rid, err := f.Insert([]byte("aaaaaaaa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := pool.Stats()

	if err := f.FillCtx(ctx, rid, 2, 'b', true); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if refs := s.Hits + s.Misses - base.Hits - base.Misses; refs != 2 {
		t.Errorf("a fill made %d page references, want 2 (read, then write)", refs)
	}
	raw := make([]byte, storage.PageSize)
	if err := d.Read(ctx, rid.Page, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("aabbbbbb")) {
		t.Fatal("backend image lacks the fill after FillCtx(flush) returned")
	}
	if got := s.WriteBacks - base.WriteBacks; got != 1 {
		t.Errorf("%d write-backs for one durable fill, want 1", got)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().WriteBacks - base.WriteBacks; got != 1 {
		t.Errorf("%d write-backs after a sweep, want 1: the flushed page must be clean", got)
	}
	if got, _ := f.GetCtx(ctx, rid); string(got) != "aabbbbbb" {
		t.Errorf("record reads back %q", got)
	}

	// Without flush the page is only dirtied; a fill past the record's end
	// changes nothing.
	if err := f.FillCtx(ctx, rid, 6, 'c', false); err != nil {
		t.Fatal(err)
	}
	if err := f.FillCtx(ctx, rid, 8, 'd', false); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().WriteBacks - base.WriteBacks; got != 1 {
		t.Errorf("a plain fill wrote the page back (%d write-backs)", got)
	}
	if got, _ := f.GetCtx(ctx, rid); string(got) != "aabbbbcc" {
		t.Errorf("record reads back %q after plain fills", got)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().WriteBacks - base.WriteBacks; got != 2 {
		t.Errorf("%d write-backs after a sweep, want 2: a plain fill leaves the page dirty", got)
	}

	if err := f.FillCtx(ctx, RID{Page: rid.Page, Slot: 42}, 0, 'x', true); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("durable fill of a missing slot: %v", err)
	}
	if got := pool.Stats().WriteBacks - base.WriteBacks; got != 2 {
		t.Errorf("a rejected fill wrote pages (%d write-backs)", got)
	}
}

// nullDisk is a backend that keeps nothing: writes are dropped and reads
// return zeros, so it allocates nothing however many pages it is given.
type nullDisk struct{ pages atomic.Int64 }

func (d *nullDisk) Read(_ context.Context, _ policy.PageID, buf []byte) error {
	clear(buf)
	return nil
}
func (d *nullDisk) Write(context.Context, policy.PageID, []byte) error { return nil }
func (d *nullDisk) Allocate() (policy.PageID, error) {
	return policy.PageID(d.pages.Add(1) - 1), nil
}
func (d *nullDisk) Flush(context.Context) error { return nil }
func (d *nullDisk) Stats() storage.Stats        { return storage.Stats{} }
func (d *nullDisk) NumPages() int               { return int(d.pages.Load()) }
func (d *nullDisk) Close() error                { return nil }

// TestLoadAllocatesNothingPerPage: Load sizes the file's page list once,
// marks its context write-behind once and gives each worker its buffers
// once, and Pool.WriteNewPage uses a marked context as it is, so a 640-page
// load makes as many allocations as a 64-page one. Each load runs on a
// fresh file over a disk that keeps nothing, so neither the file's earlier
// pages nor the disk's own growth enter the count.
func TestLoadAllocatesNothingPerPage(t *testing.T) {
	const runs = 10
	allocs := func(pages int) float64 {
		files := make([]*File, runs+1) // AllocsPerRun calls once more to warm up
		for i := range files {
			files[i] = New(bufferpool.New(&nullDisk{}, 8, core.NewSyncReplacer(2, core.Options{})))
		}
		run := 0
		got := testing.AllocsPerRun(runs, func() {
			f := files[run]
			run++
			// Two records a page.
			if err := f.Load(2*pages, storage.PageSize/3, func(int, []byte) {},
				func(int, RID) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		for _, f := range files {
			if len(f.pages) != pages {
				t.Fatalf("a %d-page load left %d pages", pages, len(f.pages))
			}
		}
		return got
	}
	if small, large := allocs(64), allocs(640); small != large {
		t.Errorf("a 64-page load allocates %.1f times, a 640-page load %.1f", small, large)
	}
}
