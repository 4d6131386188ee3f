package db

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// TestLoadCustomersRefusesLoadedDatabase is the regression test for a
// second load: it used to append n more records and count them, while the
// index replaced the first load's entries — CustomerCount 20 over an index
// of 10, ten orphaned heap records, and a durable store whose catalog no
// longer matched its index, so it could not be opened again.
func TestLoadCustomersRefusesLoadedDatabase(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		d, err := Open(Config{Frames: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.LoadCustomers(10); err != nil {
			t.Fatal(err)
		}
		pages := d.DataPages()
		if err := d.LoadCustomers(10); err == nil {
			t.Error("a second LoadCustomers was accepted")
		}
		if got := d.CustomerCount(); got != 10 {
			t.Errorf("CustomerCount = %d after a refused reload, want 10", got)
		}
		if got := d.DataPages(); got != pages {
			t.Errorf("DataPages = %d after a refused reload, want %d", got, pages)
		}
	})
	t.Run("file", func(t *testing.T) {
		leakcheck.Check(t)
		dir := t.TempDir()
		d := openDurable(t, dir)
		if err := d.LoadCustomers(10); err != nil {
			t.Fatal(err)
		}
		if err := d.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d = openDurable(t, dir)
		if err := d.LoadCustomers(10); err == nil {
			t.Error("LoadCustomers was accepted by a reopened durable store")
		}
		if err := d.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d = openDurable(t, dir) // fails the test if the catalog and index disagree
		defer d.Close()
		if got := d.CustomerCount(); got != 10 {
			t.Errorf("CustomerCount = %d after reopening, want 10", got)
		}
	})
}

// loadByInsert is the load as it was before heapfile.Load and the
// btree.Appender, kept as their referee: one heap-file Insert and one
// B-tree Insert per customer. Tree.Insert is now one Append through a
// fresh Appender, so for the index bytes the referee is also
// TestLoadIndexImage's recorded hashes, taken from the general insert.
func loadByInsert(d *DB, n int) error {
	rec := make([]byte, d.cfg.recordSize)
	for id := int64(0); id < int64(n); id++ {
		binary.LittleEndian.PutUint64(rec, uint64(id))
		rid, err := d.customers.Insert(rec)
		if err != nil {
			return err
		}
		if err := d.index.Insert(id, rid); err != nil {
			return err
		}
	}
	d.count.Add(int64(n))
	return nil
}

// loadedImage is what a load leaves on disk: the page directory's sizes,
// the index root, and a digest of every page image in id order.
type loadedImage struct {
	numPages, indexPages, dataPages int
	root                            policy.PageID
	digests                         [][sha256.Size]byte
}

func digestPages(t *testing.T, b storage.Backend, img *loadedImage) {
	t.Helper()
	img.numPages = b.NumPages()
	buf := make([]byte, storage.PageSize)
	for p := 0; p < img.numPages; p++ {
		if err := b.Read(context.Background(), policy.PageID(p), buf); err != nil {
			t.Fatalf("reading page %d: %v", p, err)
		}
		img.digests = append(img.digests, sha256.Sum256(buf))
	}
}

// loadImage runs load over a fresh 404-frame database on the named backend,
// checkpoints it, checks every customer reads back, and returns the image:
// read through the simulated disk itself, or through the file store
// reopened after Close.
func loadImage(t *testing.T, backend string, recordSize, n int, load func(*DB, int) error) loadedImage {
	t.Helper()
	cfg := Config{Frames: 404, recordSize: recordSize}
	dir := t.TempDir()
	if backend == "file" {
		s, err := file.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backend = s
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := load(d, n); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var dst []byte
	for id := int64(0); id < int64(n); id++ {
		if dst, err = d.LookupAppendCtx(context.Background(), dst[:0], id); err != nil {
			t.Fatalf("lookup %d: %v", id, err)
		}
		if got := int64(binary.LittleEndian.Uint64(dst)); got != id || len(dst) != d.cfg.recordSize {
			t.Fatalf("lookup %d: %d-byte record of customer %d", id, len(dst), got)
		}
	}
	img := loadedImage{indexPages: d.IndexPages(), dataPages: d.DataPages(), root: d.index.Root()}
	if backend == "sim" {
		digestPages(t, d.backend, &img)
		return img
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := file.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	digestPages(t, s, &img)
	return img
}

// withProcs sets GOMAXPROCS to n for the rest of the test, so the load
// splits its page writes across n workers on any host.
func withProcs(t *testing.T, n int) {
	t.Cleanup(func() { runtime.GOMAXPROCS(runtime.GOMAXPROCS(n)) })
}

// TestLoadMatchesPerRecordInserts is the load's referee: LoadCustomers
// must leave the same pages — ids, directory sizes, index root and every
// image byte — as inserting each record through Insert, across leaf-split
// boundaries (204 keys fill a leaf), both record sizes, a load far larger
// than the pool, and both backends. Four workers write the heap pages:
// 7, 9 and 409 records make 4, 5 and 205 pages at 2,000 bytes and 1, 1 and
// 11 at 100, so some loads have fewer pages than workers, one exactly as
// many, and others ranges of unequal length.
func TestLoadMatchesPerRecordInserts(t *testing.T) {
	withProcs(t, 4)
	for _, backend := range []string{"sim", "file"} {
		for _, recordSize := range []int{2000, 100} {
			for _, n := range []int{1, 2, 3, 7, 9, 204, 205, 409, 20000} {
				t.Run(fmt.Sprintf("%s/record=%d/n=%d", backend, recordSize, n), func(t *testing.T) {
					want := loadImage(t, backend, recordSize, n, loadByInsert)
					got := loadImage(t, backend, recordSize, n, (*DB).LoadCustomers)
					if got.numPages != want.numPages || got.root != want.root ||
						got.indexPages != want.indexPages || got.dataPages != want.dataPages {
						t.Fatalf("pages %d, root %d, %d index and %d data pages; per-record inserts: %d, %d, %d, %d",
							got.numPages, got.root, got.indexPages, got.dataPages,
							want.numPages, want.root, want.indexPages, want.dataPages)
					}
					for p := range want.digests {
						if got.digests[p] != want.digests[p] {
							t.Fatalf("page %d differs from the per-record inserts' image", p)
						}
					}
				})
			}
		}
	}
}

// TestLoadIndexImage pins the bytes a load leaves: after LoadCustomers and
// FlushAll at 404 frames on the simulated disk, the SHA-256 of the index
// pages in Pages order and of the whole disk in page-id order. Any change
// to how the index is built that moves a page id, a node's fill or a byte
// of a node shows here.
func TestLoadIndexImage(t *testing.T) {
	for _, c := range []struct {
		n, indexPages int
		index, disk   string
	}{
		{600, 4,
			"6366ce8d9aaa840e84d9a29ec8f315e84c507692891d2f52edd4f7ba2f35854f",
			"55e67aad28fc69f4224a57e6d173c98006a2ff869541e5d8e13274df41d80afb"},
		{2000, 11,
			"ea8af800559ad44f89027e912e812a7b300a260054f4fe805f5be32f02255521",
			"202afc2b34da06f7a6637c5a858fd1568721e184e583559ac35be36a3cd06ce2"},
		{20000, 100,
			"28d2b0a9c07207a10a6c4492e0855d149f10f7512b5e86447e75854a229b3c8a",
			"3a308cf73beb3b4fa73590823b6866a82b118a8a6eba4aff690e80e2a0e25ef5"},
	} {
		t.Run(fmt.Sprint("n=", c.n), func(t *testing.T) {
			d, err := Open(Config{Frames: 404})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if err := d.LoadCustomers(c.n); err != nil {
				t.Fatal(err)
			}
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, storage.PageSize)
			digest := func(ids []policy.PageID) string {
				h := sha256.New()
				for _, id := range ids {
					if err := d.backend.Read(context.Background(), id, buf); err != nil {
						t.Fatalf("reading page %d: %v", id, err)
					}
					h.Write(buf)
				}
				return fmt.Sprintf("%x", h.Sum(nil))
			}
			all := make([]policy.PageID, d.backend.NumPages())
			for i := range all {
				all[i] = policy.PageID(i)
			}
			pages := d.index.Pages()
			if index, disk := digest(pages), digest(all); len(pages) != c.indexPages || index != c.index || disk != c.disk {
				t.Errorf("%d index pages with SHA-256 %s, disk %s; want %d, %s, %s",
					len(pages), index, disk, c.indexPages, c.index, c.disk)
			}
		})
	}
}

// checkNoPins pins a fresh page in every frame at once, which succeeds only
// if nothing earlier left a pin behind.
func checkNoPins(t *testing.T, d *DB) {
	t.Helper()
	pages := make([]bufferpool.Page, 0, d.cfg.Frames)
	defer func() {
		for i := range pages {
			pages[i].Unpin(false)
		}
	}()
	for len(pages) < d.cfg.Frames {
		pg, err := d.pool.NewPageCtx(context.Background())
		if err != nil {
			t.Fatalf("pinning frame %d of %d: %v", len(pages)+1, d.cfg.Frames, err)
		}
		pages = append(pages, pg)
	}
}

// TestLoadFrameMinimum pins the load's pool floor: a pool under two frames
// is refused up front, naming the minimum, and two frames (the index
// builder's pinned leaf and one other page) load a three-level index
// through which every customer is found, and leave no pin behind.
func TestLoadFrameMinimum(t *testing.T) {
	// 60,000 keys fill 295 leaves, more than one internal node's 256
	// children. 100-byte records keep the heap to 1,500 pages.
	const n = 60000
	for _, frames := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprint("frames=", frames), func(t *testing.T) {
			d, err := Open(Config{Frames: frames, recordSize: 100})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			err = d.LoadCustomers(n)
			if frames < minLoadFrames {
				if err == nil || !strings.Contains(err.Error(), "at least 2 frames") || d.DataPages() != 0 {
					t.Fatalf("LoadCustomers at %d frames = %v with %d data pages, want a refusal naming the minimum before any page",
						frames, err, d.DataPages())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if h, err := d.index.Height(); err != nil || h != 3 {
				t.Fatalf("index height %d (%v), want 3", h, err)
			}
			var dst []byte
			for id := int64(0); id < n; id++ {
				if dst, err = d.LookupAppendCtx(context.Background(), dst[:0], id); err != nil {
					t.Fatalf("lookup %d: %v", id, err)
				}
				if got := int64(binary.LittleEndian.Uint64(dst)); got != id {
					t.Fatalf("lookup %d found customer %d", id, got)
				}
			}
			checkNoPins(t, d)
		})
	}
}

// TestLoadFaultReleasesPins fails a load part-way with injected disk
// faults — an allocation refused in the heap file, a leaf split or a root
// split, or the writes of chosen heap pages refused — and requires the
// error to come back with no frame left pinned, after which the database
// flushes and closes cleanly. A failed write is charged to the record
// after the page's last, or to the last record, and of two failed pages the
// lower is reported, whichever failed first. Four workers split the 1,500
// heap pages (ids 1..1515 among the index's) into ranges of 375.
func TestLoadFaultReleasesPins(t *testing.T) {
	// A two-record page per allocation, and 102 of them before the 205th
	// key splits the root leaf: a leaf, then a root.
	cases := []struct {
		name string
		rule storagetest.Rule
		want string // where the load failed
	}{
		{"first-heap-page", storagetest.Rule{Op: storage.OpAllocate}, "loading customer 0:"},
		{"heap-page", storagetest.Rule{Op: storage.OpAllocate, After: 102}, "loading customer 204:"},
		{"leaf-split", storagetest.Rule{Op: storage.OpAllocate, After: 103}, "allocating leaf"},
		{"root-split", storagetest.Rule{Op: storage.OpAllocate, After: 104}, "allocating new root"},
		{"write-back", storagetest.Rule{Op: storage.OpWrite, Pages: []policy.PageID{21}}, "loading customer 42: heapfile append: bufferpool: writing new page 21"},
		{"last-heap-page", storagetest.Rule{Op: storage.OpWrite, Pages: []policy.PageID{1515}}, "loading customer 2999: heapfile append: bufferpool: writing new page 1515"},
		// The last page of the first worker's range and the first of the
		// last worker's, so the higher page fails first.
		{"lower-page-wins", storagetest.Rule{Op: storage.OpWrite, Pages: []policy.PageID{379, 1138}}, "loading customer 750: heapfile append: bufferpool: writing new page 379"},
	}
	withProcs(t, 4)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			leakcheck.Check(t)
			faulty := storagetest.Wrap(sim.New(sim.ServiceModel{}))
			d, err := Open(Config{Frames: 16, Backend: faulty})
			if err != nil {
				t.Fatal(err)
			}
			faulty.SetPlan(storagetest.NewPlan(1, c.rule))
			err = d.LoadCustomers(3000)
			if !errors.Is(err, storagetest.ErrInjectedFault) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadCustomers = %v, want the injected fault at %q", err, c.want)
			}
			faulty.SetPlan(nil)
			checkNoPins(t, d)
			if err := d.FlushAll(); err != nil {
				t.Fatalf("FlushAll after the failed load: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close after the failed load: %v", err)
			}
		})
	}
}

// TestLoadPoolTraffic: the bulk load references an index page when it
// allocates it and, once per leaf split, on the index's right spine — not
// per record — and never references a heap page, which it writes past the
// pool. At the benchmark's 404 frames nothing it wrote is read back from
// disk: its misses are the index allocations alone.
func TestLoadPoolTraffic(t *testing.T) {
	d, err := Open(Config{Frames: 404})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(20000); err != nil {
		t.Fatal(err)
	}
	st := d.StatsSnapshot()
	t.Logf("LoadCustomers(20000): %d pool hits, %d misses, %d allocations", st.Pool.Hits, st.Pool.Misses, st.Disk.Allocated)
	if st.Pool.Hits > 1000 {
		t.Errorf("%d pool hits, want at most 1000", st.Pool.Hits)
	}
	if indexAllocs := st.Disk.Allocated - uint64(st.DataPages); st.Pool.Misses != indexAllocs {
		t.Errorf("%d misses for %d index allocations: the load read back a page it wrote", st.Pool.Misses, indexAllocs)
	}
}

// TestLoadWritesEachHeapPageOnce: the load writes every heap page to disk
// exactly once, past the pool — no frame, no eviction, no write-back, no
// read, and no replacer history for it — so the disk's writes are the heap
// pages plus the index's write-backs, and the replacer holds history for
// index pages only. On the durable store those writes are made behind: no
// WAL fsync until the first FlushAll's checkpoint.
func TestLoadWritesEachHeapPageOnce(t *testing.T) {
	cases := []struct {
		backend           string
		customers, frames int
	}{
		{"sim", 20000, 404},
		{"file", 2000, 64},
	}
	for _, c := range cases {
		t.Run(c.backend, func(t *testing.T) {
			cfg := Config{Frames: c.frames}
			if c.backend == "file" {
				s, err := file.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cfg.Backend = s
			}
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			before := d.StatsSnapshot()
			if err := d.LoadCustomers(c.customers); err != nil {
				t.Fatal(err)
			}
			st := d.StatsSnapshot()
			writes, reads := st.Disk.Writes-before.Disk.Writes, st.Disk.Reads-before.Disk.Reads
			t.Logf("LoadCustomers(%d) at %d frames: %d data and %d index pages, %d disk writes, %d write-backs, %d history blocks",
				c.customers, c.frames, st.DataPages, st.IndexPages, writes, st.Pool.WriteBacks, st.Policy.HistoryBlocks)
			if want := uint64(st.DataPages) + st.Pool.WriteBacks - before.Pool.WriteBacks; writes != want {
				t.Errorf("%d disk writes, want %d data pages + %d write-backs", writes, st.DataPages, st.Pool.WriteBacks)
			}
			if reads != 0 {
				t.Errorf("%d disk reads: the load read back a page it wrote", reads)
			}
			framed := st.IndexPages
			if c.backend == "file" {
				framed++ // the catalog page
			}
			if st.Policy.HistoryBlocks > framed {
				t.Errorf("%d replacer history blocks for %d index pages: heap pages reached the replacer",
					st.Policy.HistoryBlocks, st.IndexPages)
			}
			if c.backend != "file" {
				return
			}
			if syncs := st.Disk.WALSyncs - before.Disk.WALSyncs; syncs != 0 {
				t.Errorf("the load made %d WAL fsyncs, want 0 until FlushAll", syncs)
			}
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
			// Two WAL fsyncs: the barrier's, then the catalog publish's own.
			if st := d.StatsSnapshot(); st.Disk.WALSyncs-before.Disk.WALSyncs != 2 || st.Disk.Checkpoints-before.Disk.Checkpoints != 1 {
				t.Errorf("FlushAll made %d WAL fsyncs and %d checkpoints, want 2 and 1",
					st.Disk.WALSyncs-before.Disk.WALSyncs, st.Disk.Checkpoints-before.Disk.Checkpoints)
			}
		})
	}
}

// BenchmarkLoadCustomers times Open plus the paper-scale load (20,000
// customers, 404 frames): the set-up every benchmark workload pays.
// disk_writes/op and pool_misses/op are the load's page writes and pool
// misses: the heap pages written once each (10,000), and the index pages
// only (100: the right-edge splits pack 99 leaves under the root).
func BenchmarkLoadCustomers(b *testing.B) {
	var writes, misses uint64
	for range b.N {
		d, err := Open(Config{Frames: 404})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.LoadCustomers(20000); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := d.StatsSnapshot()
		writes += st.Disk.Writes
		misses += st.Pool.Misses
		d.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(writes)/float64(b.N), "disk_writes/op")
	b.ReportMetric(float64(misses)/float64(b.N), "pool_misses/op")
}

// BenchmarkDurableSetup times the durable set-up net_durable_mixed pays: a
// fresh file store, Open at 404 frames, LoadCustomers(600) and the first
// FlushAll. wal_fsyncs/op is the log fsyncs that set-up makes,
// wal_appends/op the records it logs (the 305 allocations and the catalog
// publish: first images go to their slots alone), log_writes/op the
// write() calls on the log and extends/op the times pages.db grew.
func BenchmarkDurableSetup(b *testing.B) {
	var syncs, appends, logWrites, extends uint64
	for range b.N {
		s, err := file.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		d, err := Open(Config{Frames: 404, Backend: s})
		if err != nil {
			s.Close()
			b.Fatal(err)
		}
		if err := d.LoadCustomers(600); err != nil {
			b.Fatal(err)
		}
		if err := d.FlushAll(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := d.StatsSnapshot().Disk
		syncs += st.WALSyncs
		appends += st.WALAppends
		w, e := s.SyscallCounts()
		logWrites += w
		extends += e
		d.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(syncs)/float64(b.N), "wal_fsyncs/op")
	b.ReportMetric(float64(appends)/float64(b.N), "wal_appends/op")
	b.ReportMetric(float64(logWrites)/float64(b.N), "log_writes/op")
	b.ReportMetric(float64(extends)/float64(b.N), "extends/op")
}
