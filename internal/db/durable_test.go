package db

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/storagetest"
)

// openDurable assembles a database over a file-backed durable store rooted
// at dir. Frames are kept small so load and update traffic spills through
// eviction write-backs into the WAL, not just the final flush.
func openDurable(t *testing.T, dir string) *DB {
	t.Helper()
	s, err := file.Open(dir)
	if err != nil {
		t.Fatalf("open store %s: %v", dir, err)
	}
	d, err := Open(Config{Frames: 12, Backend: s})
	if err != nil {
		s.Close()
		t.Fatalf("open db over %s: %v", dir, err)
	}
	return d
}

func checkCustomer(t *testing.T, d *DB, id int64, fill byte) {
	t.Helper()
	rec, err := d.Lookup(id)
	if err != nil {
		t.Fatalf("lookup %d: %v", id, err)
	}
	if got := int64(binary.LittleEndian.Uint64(rec)); got != id {
		t.Errorf("customer %d: record carries id %d", id, got)
	}
	for i := 8; i < len(rec); i++ {
		if rec[i] != fill {
			t.Fatalf("customer %d: filler byte %d is %#x, want %#x", id, i, rec[i], fill)
		}
	}
}

// TestDurableReopen is the durable mode's lifecycle contract: load, flush,
// close, reopen — the dataset comes back attached, fully indexed, and
// updatable, across two generations of restart.
func TestDurableReopen(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	const customers = 200

	d := openDurable(t, dir)
	if d.Attached() {
		t.Error("fresh durable db claims to be attached to an existing dataset")
	}
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateCustomerCtx(context.Background(), 42, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir)
	if !d2.Attached() {
		t.Fatal("reopened db did not attach to the checkpointed dataset")
	}
	if ri, ok := d2.Recovery(); !ok || !ri.Reopened {
		t.Errorf("recovery info = %+v, %v; want a reopen report", ri, ok)
	}
	if got := d2.CustomerCount(); got != customers {
		t.Errorf("CustomerCount = %d after reopen, want %d", got, customers)
	}
	checkCustomer(t, d2, 42, 0xAA) // update flushed before close survives
	checkCustomer(t, d2, 7, 0)     // untouched record intact
	checkCustomer(t, d2, customers-1, 0)
	if _, err := d2.Lookup(customers); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup past the dataset: %v, want ErrNotFound", err)
	}
	if err := d2.UpdateCustomerCtx(context.Background(), 7, 0x55); err != nil {
		t.Fatalf("update after reopen: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3 := openDurable(t, dir)
	if got := d3.CustomerCount(); got != customers {
		t.Errorf("CustomerCount = %d after second reopen, want %d", got, customers)
	}
	checkCustomer(t, d3, 7, 0x55)
	checkCustomer(t, d3, 42, 0xAA)
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashImage clones the store directory while the database is still
// running — the moral equivalent of the machine losing power at that
// instant — so a second database can recover from it.
func crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestAckedUpdateSurvivesCrash pins durable mode's acknowledgement
// contract: once UpdateCustomer returns, the update is in the fsynced WAL,
// so a crash image taken at any later instant — with the buffer pool's
// dirty pages and the next checkpoint both lost — still recovers it.
func TestAckedUpdateSurvivesCrash(t *testing.T) {
	leakcheck.Check(t)
	origin := t.TempDir()
	const customers = 100

	d := openDurable(t, origin)
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err) // catalog published: the dataset exists on disk
	}
	for _, upd := range []struct {
		id   int64
		fill byte
	}{{3, 0xEE}, {57, 0x11}, {3, 0xEF}} {
		if err := d.UpdateCustomerCtx(context.Background(), upd.id, upd.fill); err != nil {
			t.Fatal(err)
		}
	}
	img := crashImage(t, origin) // power cut here
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, img)
	defer d2.Close()
	if !d2.Attached() {
		t.Fatal("crash image did not reattach")
	}
	if ri, ok := d2.Recovery(); !ok || ri.Replayed == 0 {
		t.Errorf("recovery info = %+v, %v; want replayed WAL records", ri, ok)
	}
	checkCustomer(t, d2, 3, 0xEF) // both acked updates, in order
	checkCustomer(t, d2, 57, 0x11)
	checkCustomer(t, d2, 4, 0) // neighbours untouched
	if got := d2.CustomerCount(); got != customers {
		t.Errorf("CustomerCount = %d after crash recovery, want %d", got, customers)
	}
}

// TestCrashBeforeFirstCheckpoint: a durable database that dies before its
// first FlushAll has never published a catalog, so the dataset does not
// exist yet — reopening must fail loudly rather than attach to garbage.
func TestCrashBeforeFirstCheckpoint(t *testing.T) {
	leakcheck.Check(t)
	origin := t.TempDir()

	d := openDurable(t, origin)
	if err := d.LoadCustomers(50); err != nil {
		t.Fatal(err)
	}
	img := crashImage(t, origin) // crash with no checkpoint ever taken
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := file.Open(img)
	if err != nil {
		t.Fatalf("store-level recovery itself must succeed: %v", err)
	}
	d2, err := Open(Config{Frames: 12, Backend: s})
	if err == nil {
		d2.Close()
		t.Fatal("db attached to a store with an unpublished catalog")
	}
	s.Close()
}

// TestDurableSetupSharesFsyncs guards the fsync counts of a durable set-up,
// which are deterministic: loading an all-resident index appends an alloc
// record per page and writes each heap page behind, syncing none of them
// (they ride the next sync), and the first FlushAll writes the index pages
// behind and makes exactly two WAL fsyncs — the checkpoint's one for the
// load and the sweep together, and the catalog publish's own.
func TestDurableSetupSharesFsyncs(t *testing.T) {
	leakcheck.Check(t)
	s, err := file.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Config{Frames: 404, Backend: s})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	defer d.Close()
	before := d.StatsSnapshot()
	if err := d.LoadCustomers(600); err != nil {
		t.Fatal(err)
	}
	loaded := d.StatsSnapshot()
	if loaded.Pool.Evictions != 0 {
		t.Fatalf("%d evictions: the population must stay resident", loaded.Pool.Evictions)
	}
	allocs := loaded.Disk.Allocated - before.Disk.Allocated
	loadSyncs := loaded.Disk.WALSyncs - before.Disk.WALSyncs
	if loadSyncs != 0 {
		t.Errorf("LoadCustomers(600) made %d WAL fsyncs for %d allocations, want 0", loadSyncs, allocs)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	flushed := d.StatsSnapshot()
	writes := flushed.Disk.Writes - before.Disk.Writes
	syncs := flushed.Disk.WALSyncs - before.Disk.WALSyncs
	t.Logf("load: %d allocations, %d WAL fsyncs; load and first FlushAll: %d page writes, %d WAL fsyncs (%.1f per fsync)",
		allocs, loadSyncs, writes, syncs, float64(writes)/float64(syncs))
	if writes < allocs || syncs != 2 {
		t.Errorf("load and first FlushAll made %d WAL fsyncs for %d page writes, want 2 for at least %d", syncs, writes, allocs)
	}
}

// TestDurableLoadLogsOnlyAllocations pins what the durable set-up puts in
// the log. Every page the load writes is a first image written behind of a
// page allocated since the store's last checkpoint, so the file store
// writes it to its slot with no log record: the 600-customer load appends
// its 305 allocation records (the catalog, 300 heap and 4 index pages) and
// nothing else. The first FlushAll writes the index and catalog pages'
// first images behind, unlogged too; its checkpoint empties the log, and
// the catalog publish, the catalog's second image, appends the one page
// record.
func TestDurableLoadLogsOnlyAllocations(t *testing.T) {
	const (
		allocRecord = 8 + 1 + 8 // frame header, kind, page id
		pageRecord  = allocRecord + storage.PageSize
	)
	s, err := file.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Config{Frames: 404, Backend: s})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(600); err != nil {
		t.Fatal(err)
	}
	loaded := d.StatsSnapshot().Disk
	if loaded.Allocated != 305 || loaded.WALAppends != 305 || loaded.WALBytes != 305*allocRecord {
		t.Errorf("the load allocated %d pages and appended %d records, %d log bytes; want 305, 305 and %d: allocation records only",
			loaded.Allocated, loaded.WALAppends, loaded.WALBytes, 305*allocRecord)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	flushed := d.StatsSnapshot().Disk
	if got := flushed.WALAppends - loaded.WALAppends; got != 1 || flushed.WALBytes != pageRecord {
		t.Errorf("FlushAll appended %d records and left %d log bytes, want 1 and %d: the catalog publish's page record",
			got, flushed.WALBytes, pageRecord)
	}
}

// TestDurableLoadUnderEvictionAbandoned: updates over more pages than the
// pool holds interleave synced writes and evictions with the load's records
// made behind — alloc records and heap page images, none synced.
// Abandoning the store after the first FlushAll and such updates must
// recover the whole dataset; abandoning it mid-load, before any FlushAll,
// must still fail loudly rather than attach to half a dataset.
func TestDurableLoadUnderEvictionAbandoned(t *testing.T) {
	const frames = 64
	open := func(t *testing.T, dir string) *DB {
		t.Helper()
		s, err := file.Open(dir)
		if err != nil {
			t.Fatalf("open store %s: %v", dir, err)
		}
		d, err := Open(Config{Frames: frames, Backend: s})
		if err != nil {
			s.Close()
			t.Fatalf("open db over %s: %v", dir, err)
		}
		return d
	}
	load := func(t *testing.T, d *DB, n int) {
		t.Helper()
		if err := d.LoadCustomers(n); err != nil {
			t.Fatal(err)
		}
	}
	// churn updates customers i*97 % n for i in [from, to), recording each
	// acknowledged fill in acked. Over more pages than frames it evicts and
	// makes synced writes.
	churn := func(t *testing.T, d *DB, n, from, to int64, acked map[int64]byte) {
		t.Helper()
		for i := from; i < to; i++ {
			id, fill := i*97%n, byte(0x40+i)
			if err := d.UpdateCustomerCtx(context.Background(), id, fill); err != nil {
				t.Fatal(err)
			}
			acked[id] = fill
		}
	}
	// updates is how many customers a churn updates before an abandon: on
	// more pages than frames, with fills 0x40 + i still distinct and nonzero
	// for ten more.
	const updates = 150
	checkTraffic := func(t *testing.T, d *DB) {
		t.Helper()
		if st := d.StatsSnapshot(); st.Pool.WriteBacks == 0 || st.Disk.WALSyncs == 0 || st.Pool.Evictions == 0 {
			t.Fatalf("%d write-backs, %d fsyncs and %d evictions: no eviction traffic",
				st.Pool.WriteBacks, st.Disk.WALSyncs, st.Pool.Evictions)
		}
	}

	t.Run("after-flush", func(t *testing.T) {
		leakcheck.Check(t)
		const customers = 2000
		origin := t.TempDir()
		d := open(t, origin)
		load(t, d, customers)
		if err := d.FlushAll(); err != nil {
			t.Fatal(err)
		}
		acked := make(map[int64]byte)
		churn(t, d, customers, 0, updates, acked)
		checkTraffic(t, d)
		img := crashImage(t, origin) // abandon: no flush, no close
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		d2 := open(t, img)
		defer d2.Close()
		if !d2.Attached() || d2.CustomerCount() != customers {
			t.Fatalf("reopened: attached %v with %d customers, want %d", d2.Attached(), d2.CustomerCount(), customers)
		}
		for id := int64(0); id < customers; id++ {
			checkCustomer(t, d2, id, acked[id])
		}
	})

	t.Run("mid-load", func(t *testing.T) {
		leakcheck.Check(t)
		origin := t.TempDir()
		d := open(t, origin)
		load(t, d, 1200)
		churn(t, d, 1200, 0, updates, make(map[int64]byte))
		checkTraffic(t, d)
		img := crashImage(t, origin) // abandon before the first FlushAll
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		s, err := file.Open(img)
		if err != nil {
			t.Fatalf("store-level recovery itself must succeed: %v", err)
		}
		d2, err := Open(Config{Frames: frames, Backend: s})
		if err == nil {
			d2.Close()
			t.Fatalf("db attached to a store abandoned mid-load: %d customers", d2.CustomerCount())
		}
		s.Close()
		if !strings.Contains(err.Error(), "crashed before its first FlushAll") {
			t.Errorf("reopen error = %v, want the unpublished-catalog error", err)
		}
	})

	t.Run("mid-sweep", func(t *testing.T) {
		leakcheck.Check(t)
		const customers, k = 2000, 5
		origin := t.TempDir()
		s, err := file.Open(origin)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cs := &cancelAfterBehind{Store: s, cancel: cancel}
		d, err := Open(Config{Frames: frames, Backend: cs})
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		defer d.Close()
		load(t, d, customers)
		if err := d.FlushAll(); err != nil {
			t.Fatal(err)
		}
		acked := make(map[int64]byte)
		churn(t, d, customers, 0, updates, acked)
		checkTraffic(t, d)
		// Give the sweep work: every resident page dirty, images unchanged.
		for id := range policy.PageID(s.NumPages()) {
			if !d.pool.Resident(id) {
				continue
			}
			pg, err := d.pool.FetchCtx(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			pg.Unpin(true)
		}
		cs.behind.Store(0)
		cs.left.Store(k)
		if err := d.FlushAllCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("FlushAllCtx cancelled after %d write-behinds = %v, want context.Canceled", k, err)
		}
		if got := cs.behind.Load(); got != k {
			t.Fatalf("sweep made %d write-behinds before stopping, want %d", got, k)
		}
		churn(t, d, customers, updates, updates+10, acked)
		img := crashImage(t, origin) // abandon: no flush, no close
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		d2 := open(t, img)
		defer d2.Close()
		if !d2.Attached() || d2.CustomerCount() != customers {
			t.Fatalf("reopened: attached %v with %d customers, want %d", d2.Attached(), d2.CustomerCount(), customers)
		}
		for id := int64(0); id < customers; id++ {
			checkCustomer(t, d2, id, acked[id])
		}
	})
}

// cancelAfterBehind is a file store that counts the writes made behind and
// cancels a sweep's context once left of them have returned.
type cancelAfterBehind struct {
	*file.Store
	cancel context.CancelFunc
	left   atomic.Int64
	behind atomic.Int64
}

func (c *cancelAfterBehind) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	err := c.Store.Write(ctx, p, buf)
	if storage.WriteBehind(ctx) {
		c.behind.Add(1)
		if c.left.Add(-1) == 0 {
			c.cancel()
		}
	}
	return err
}

// TestDurableUpdateUnderEviction is the regression test for the durable
// update's false failure: an update used to unpin its record page after the
// in-place write and only then flush it by id, so an eviction in between
// turned an update whose image the write-back had already logged into a
// reported failure ("page not resident"). The window is widest when the
// flush stalls on the page latch: a flusher holds the stripe shared across
// its fsync, a second writer queues for it exclusively, and the first
// updater's shared acquire queues behind that writer with its page unpinned.
// The test provokes exactly that — every updater works on record pages of
// one latch stripe while readers churn a pool far smaller than the dataset
// — and demands zero failed acknowledgements, each of which must survive
// abandoning the database and recovering from its image.
func TestDurableUpdateUnderEviction(t *testing.T) {
	leakcheck.Check(t)
	origin := t.TempDir()
	const (
		customers = 1200 // ~600 record pages against 16 frames
		frames    = 16
		updaters  = 4
		churners  = 3
		rounds    = 120
		stripes   = 64 // heapfile's page-latch stripe count
	)
	s, err := file.Open(origin)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Config{Frames: frames, Backend: s})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// The customers whose record pages share latch stripe 0.
	var hot []int64
	for id := int64(0); id < customers; id++ {
		rid, ok, err := d.index.GetCtx(context.Background(), id)
		if err != nil || !ok {
			t.Fatalf("index.GetCtx(%d) = %v, %v", id, ok, err)
		}
		if uint64(rid.Page)%stripes == 0 {
			hot = append(hot, id)
		}
	}
	if len(hot) < 2*updaters {
		t.Fatalf("only %d customers on the hot stripe", len(hot))
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < churners; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for id := int64(g); ; id = (id + 7) % customers {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d.Lookup(id); err != nil {
					t.Errorf("churn lookup %d: %v", id, err)
					return
				}
			}
		}(g)
	}

	// Each updater owns every updaters-th hot customer, so the last
	// acknowledged fill per customer is unambiguous.
	acked := make(map[int64]byte)
	var ackedMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := hot[(i*updaters+g)%(len(hot)/updaters*updaters)]
				fill := byte(1 + (i+g)%250)
				if err := d.UpdateCustomerCtx(context.Background(), id, fill); err != nil {
					t.Errorf("update %d (updater %d, round %d) reported failed: %v", id, g, i, err)
					return
				}
				ackedMu.Lock()
				acked[id] = fill
				ackedMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if st := d.StatsSnapshot(); st.Pool.Evictions == 0 {
		t.Fatal("no evictions: the pool is not small enough to exercise the race")
	}

	img := crashImage(t, origin) // abandon: no flush, no close
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := file.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Open(Config{Frames: frames, Backend: s2})
	if err != nil {
		s2.Close()
		t.Fatal(err)
	}
	defer d2.Close()
	for id, fill := range acked {
		checkCustomer(t, d2, id, fill)
	}
}

// TestInjectedWriteFaultOverDurableStore: a fault plan composes over the
// durable file store without hiding that it is durable. The database over
// the injector runs durable; an update whose flush is faulted fails
// with the injected error, once, and the pool's error ledger matches the
// injector's; the key's next update is acknowledged, and a reopen attaches
// and reads that acknowledged fill.
func TestInjectedWriteFaultOverDurableStore(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	const customers, key = 100, 7
	store, err := file.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	faulty := storagetest.Wrap(store)
	d, err := Open(Config{Frames: 12, Backend: faulty})
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	if _, durable := d.Recovery(); !durable {
		d.Close()
		t.Fatal("db over the injector on a file store does not run durable")
	}
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	faulty.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Count: 1}))
	if err := d.UpdateCustomerCtx(ctx, key, 0xA1); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Fatalf("update through a faulted flush = %v, want the injected fault", err)
	}
	if faults, errs := faulty.Ledger().WriteFaults, d.PoolStats().WriteErrors; faults != 1 || errs != faults {
		t.Errorf("%d write faults, %d pool write errors; want 1 and equal", faults, errs)
	}
	if err := d.UpdateCustomerCtx(ctx, key, 0xB2); err != nil {
		t.Fatalf("update after the fault budget: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir)
	defer d2.Close()
	if !d2.Attached() {
		t.Fatal("reopened db did not attach")
	}
	checkCustomer(t, d2, key, 0xB2)
}
