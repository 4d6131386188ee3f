package db

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

func TestOpenValidation(t *testing.T) {
	cases := []Config{
		{Frames: 0},
		{Frames: -1},
		{Frames: 10, K: -2},
		{Frames: 10, recordSize: 4},
		{Frames: 10, recordSize: 1 << 20},
	}
	for i, cfg := range cases {
		if _, err := Open(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	db, err := Open(Config{Frames: 10})
	if err != nil {
		t.Errorf("default config rejected: %v", err)
	} else {
		db.Close()
	}
}

func TestLoadAndLookup(t *testing.T) {
	db, err := Open(Config{Frames: 50, recordSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 500
	if err := db.LoadCustomers(n); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{0, 1, 250, 499} {
		rec, err := db.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", id, err)
		}
		if got := int64(binary.LittleEndian.Uint64(rec)); got != id {
			t.Errorf("Lookup(%d) returned record for %d", id, got)
		}
		if len(rec) != 100 {
			t.Errorf("record size %d, want 100", len(rec))
		}
	}
	if _, err := db.Lookup(n + 5); err == nil {
		t.Error("lookup of missing customer succeeded")
	}
	if err := db.LoadCustomers(0); err == nil {
		t.Error("zero-customer load accepted")
	}
}

func TestPageGeometryMatchesPaper(t *testing.T) {
	// 2000-byte records pack two per 4 KByte page; 20-byte index entries
	// pack 204 per leaf, and the ascending load packs every leaf but the
	// last (Example 1.1: "packed full"). The paper's 20,000 customers take
	// 10,000 data pages and 98 full leaves, a 99th and the root; the tests'
	// usual 10x scale-down takes 10 leaves and the root.
	cases := []struct{ customers, indexPages int }{
		{2000, 11},
		{20000, 100},
	}
	for _, c := range cases {
		db, err := Open(Config{Frames: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadCustomers(c.customers); err != nil {
			t.Fatal(err)
		}
		if got := db.DataPages(); got != c.customers/2 {
			t.Errorf("%d customers: DataPages = %d, want %d (two 2000-byte records per page)", c.customers, got, c.customers/2)
		}
		if got := db.IndexPages(); got != c.indexPages {
			t.Errorf("%d customers: IndexPages = %d, want %d (full leaves and a root)", c.customers, got, c.indexPages)
		}
		h, err := db.index.Height()
		if err != nil {
			t.Fatal(err)
		}
		if h != 2 {
			t.Errorf("%d customers: index height = %d, want 2 (root over leaves)", c.customers, h)
		}
		db.Close()
	}
}

func TestUpdateCustomer(t *testing.T) {
	db, err := Open(Config{Frames: 32, recordSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadCustomers(100); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateCustomerCtx(context.Background(), 42, 0xAB); err != nil {
		t.Fatal(err)
	}
	rec, err := db.Lookup(42)
	if err != nil {
		t.Fatal(err)
	}
	if rec[8] != 0xAB || rec[63] != 0xAB {
		t.Errorf("update not applied: % x", rec[8:12])
	}
	if got := int64(binary.LittleEndian.Uint64(rec)); got != 42 {
		t.Error("update clobbered the key prefix")
	}
	if err := db.UpdateCustomerCtx(context.Background(), 9999, 1); err == nil {
		t.Error("update of missing customer succeeded")
	}
}

func TestScanCustomers(t *testing.T) {
	db, err := Open(Config{Frames: 16, recordSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadCustomers(300); err != nil {
		t.Fatal(err)
	}
	n, err := db.ScanCustomersCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Errorf("scan saw %d records, want 300", n)
	}
}

// TestExample11Discrimination is the paper's Example 1.1 run end to end
// through the real B-tree and heap file: with the pool sized to hold about
// the index, LRU-2 retains far more index pages (and achieves a higher hit
// ratio) than LRU-1, which splits its frames between index and data pages.
func TestExample11Discrimination(t *testing.T) {
	// 2000 customers → 1000 data pages, 10 leaf pages + root. Pool of 16
	// frames comfortably fits the index but a vanishing fraction of data.
	const customers, lookups, frames = 2000, 20000, 16
	res2, err := RunExample11(Config{Frames: frames, K: 2}, customers, lookups, 11)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := RunExample11(Config{Frames: frames, K: 1}, customers, lookups, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res2.HitRatio <= res1.HitRatio {
		t.Errorf("LRU-2 hit ratio %.3f not above LRU-1 %.3f", res2.HitRatio, res1.HitRatio)
	}
	if res2.ResidentIndex <= res1.ResidentIndex {
		t.Errorf("LRU-2 holds %d index pages, LRU-1 holds %d; expected discrimination",
			res2.ResidentIndex, res1.ResidentIndex)
	}
	// LRU-2 holds the whole index after nearly every lookup; LRU-1 hardly
	// ever does. Not after every one: with the 8-tick correlated reference
	// period a leaf drops out now and then (after about 10 % of lookups;
	// with no CRP, 0.2 %), so the run is sampled rather than its end state.
	whole2 := wholeIndexShare(t, Config{Frames: frames, K: 2}, customers, lookups, 11)
	whole1 := wholeIndexShare(t, Config{Frames: frames, K: 1}, customers, lookups, 11)
	if whole2 < 0.8 || whole1 > 0.05 {
		t.Errorf("whole index resident after %.2f of LRU-2's and %.2f of LRU-1's lookups, want >= 0.8 and <= 0.05",
			whole2, whole1)
	}
	// And it needs fewer disk reads for the same work.
	if res2.DiskReads >= res1.DiskReads {
		t.Errorf("LRU-2 disk reads %d not below LRU-1 %d", res2.DiskReads, res1.DiskReads)
	}
}

// wholeIndexShare runs RunExample11's lookups and returns the share of the
// sampled points (every tenth lookup) at which every index page is resident.
func wholeIndexShare(t *testing.T, cfg Config, customers, lookups int, seed uint64) float64 {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(seed)
	whole, samples := 0, 0
	for i := 1; i <= lookups; i++ {
		if _, err := d.Lookup(int64(r.Intn(customers))); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			samples++
			if index, _ := d.ResidentByClass(); index == d.IndexPages() {
				whole++
			}
		}
	}
	return float64(whole) / float64(samples)
}

// TestConcurrentLookups drives the read path (B-tree descent plus heap
// record fetch) through the latch-partitioned buffer pool from many
// goroutines at once; every record must come back intact.
func TestConcurrentLookups(t *testing.T) {
	const customers = 500
	db, err := Open(Config{Frames: 64, recordSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(g + 1))
			for i := 0; i < 500; i++ {
				id := int64(r.Intn(customers))
				rec, err := db.Lookup(id)
				if err != nil {
					errs <- err
					return
				}
				if got := int64(binary.LittleEndian.Uint64(rec)); got != id {
					errs <- fmt.Errorf("lookup %d returned record %d", id, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := db.PoolStats()
	if s.Hits+s.Misses == 0 {
		t.Error("no pool traffic recorded")
	}
}

// TestOpenStacksOnlyWhatServes pins the storage stack Open assembles: the
// caller's backend itself, whatever Obs and Spans ask for — the pool's I/O
// gate records the disk histograms and spans — and a simulated disk when no
// backend is given.
func TestOpenStacksOnlyWhatServes(t *testing.T) {
	for name, cfg := range map[string]Config{
		"plain": {},
		"obs":   {Obs: obs.NewRegistry()},
		"spans": {Spans: obs.NewSpanRecorder("n", 8)},
		"both":  {Obs: obs.NewRegistry(), Spans: obs.NewSpanRecorder("n", 8)},
	} {
		base := sim.New(sim.ServiceModel{})
		cfg.Frames, cfg.Backend = 8, base
		d, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d.backend != storage.Backend(base) {
			t.Errorf("%s: pool backend is %T, want the Config.Backend value itself", name, d.backend)
		}
		d.Close()
	}

	def, err := Open(Config{Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if _, ok := def.backend.(*sim.Manager); !ok {
		t.Errorf("nil Backend: pool backend is %T, want *sim.Manager", def.backend)
	}
}

// TestDiskFaultsSurfaceAndRecover hands the database a fault-injecting
// backend, arms a plan on the kept handle, checks that lookups surface the
// injected read fault without corrupting the pool, and that the workload
// recovers once the faults are exhausted.
func TestDiskFaultsSurfaceAndRecover(t *testing.T) {
	const customers = 40
	faulty := storage.WithFaults(sim.New(sim.ServiceModel{}))
	db, err := Open(Config{Frames: 8, Backend: faulty})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	// Every read faults for a while: small pool, so lookups must miss.
	faulty.SetFaults(storage.NewFaultPlan(7, storage.FaultRule{Op: storage.OpRead, Count: 3}))
	faulted := 0
	for id := int64(0); id < customers; id++ {
		if _, err := db.Lookup(id); err != nil {
			if !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("lookup %d: %v, want a wrapped injected fault", id, err)
			}
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no lookup surfaced the injected read faults")
	}
	if s := db.PoolStats(); s.ReadErrors != 3 {
		t.Errorf("pool ReadErrors = %d, want 3", s.ReadErrors)
	}
	if ds := db.StatsSnapshot().Disk; ds.ReadFaults != 3 {
		t.Errorf("disk ReadFaults = %d, want 3", ds.ReadFaults)
	}
	// Faults exhausted: every record is reachable again and flush is clean.
	faulty.SetFaults(nil)
	for id := int64(0); id < customers; id++ {
		rec, err := db.Lookup(id)
		if err != nil {
			t.Fatalf("lookup %d after recovery: %v", id, err)
		}
		if got := int64(binary.LittleEndian.Uint64(rec)); got != id {
			t.Errorf("lookup %d returned record %d", id, got)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Errorf("FlushAll after recovery: %v", err)
	}
}

// TestLookupAppendCtx pins the append-style lookup every other form calls:
// the record lands after a non-empty prefix without disturbing it, a nil
// dst yields exactly what LookupCtx returns, the caller's buffer never
// aliases the page, and errors hand dst back unchanged.
func TestLookupAppendCtx(t *testing.T) {
	d, err := Open(Config{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadCustomers(50); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateCustomerCtx(context.Background(), 7, 0x5A); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := d.LookupCtx(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.LittleEndian.Uint64(want)); got != 7 || want[8] != 0x5A {
		t.Fatalf("LookupCtx returned id %d fill %#x", got, want[8])
	}
	fresh, err := d.LookupAppendCtx(ctx, nil, 7)
	if err != nil || !bytes.Equal(fresh, want) {
		t.Fatalf("nil dst = %d bytes, err %v; want LookupCtx's %d", len(fresh), err, len(want))
	}
	prefix := []byte("frame-header:")
	buf := append(make([]byte, 0, 4096), prefix...)
	out, err := d.LookupAppendCtx(ctx, buf, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
		t.Fatalf("appended lookup = prefix %q + %d bytes", out[:len(prefix)], len(out)-len(prefix))
	}
	if &out[0] != &buf[:1][0] {
		t.Error("a record that fit dst's capacity reallocated it")
	}
	// Scribbling on the caller's buffer must not reach the page.
	for i := range out {
		out[i] = 0xFF
	}
	again, err := d.LookupCtx(ctx, 7)
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("lookup after scribble differs (err %v)", err)
	}
	// Errors return dst as it was.
	keep := []byte("keep")
	out, err = d.LookupAppendCtx(ctx, keep, 999)
	if !errors.Is(err, ErrNotFound) || !bytes.Equal(out, keep) {
		t.Errorf("missing id: out %q err %v, want dst unchanged + ErrNotFound", out, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if out, err := d.LookupAppendCtx(ctx, keep, 7); !errors.Is(err, ErrClosed) || !bytes.Equal(out, keep) {
		t.Errorf("closed db: out %q err %v", out, err)
	}
}

// TestLookupAllocations is the count-based guard behind the benchmark's
// allocs_per_op: a resident GET fetches three pages (B-tree root, leaf,
// heap page) and none of the fetches may touch the heap, so a lookup into
// a reused buffer allocates nothing and LookupCtx allocates exactly the
// record its caller owns — also when the record page misses and its fetch
// evicts a victim to read it in.
func TestLookupAllocations(t *testing.T) {
	d, err := Open(Config{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(1000); err != nil { // enough for a root above the leaves
		t.Fatal(err)
	}
	ctx := context.Background()
	const cust = 420
	buf, err := d.LookupAppendCtx(ctx, nil, cust) // warm: the three pages are resident
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if buf, err = d.LookupAppendCtx(ctx, buf[:0], cust); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("LookupAppendCtx into a reused buffer allocates %.2f times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if _, err := d.LookupCtx(ctx, cust); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("LookupCtx allocates %.2f times per call, want 1 (the returned record)", got)
	}

	// Customers 2p and 2p+1 share data page p: stepping through all 500
	// data pages over 64 frames makes every record fetch a miss.
	next := 0
	before := d.PoolStats().Misses
	if got := testing.AllocsPerRun(1000, func() {
		next = (next + 2) % 1000
		if _, err := d.LookupCtx(ctx, int64(next)); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("LookupCtx of a non-resident record allocates %.2f times per call, want 1 (the returned record)", got)
	}
	if misses := d.PoolStats().Misses - before; misses < 1000 {
		t.Fatalf("only %d misses over 1001 lookups: the record pages stayed resident", misses)
	}
}

// TestUpdateInPlace pins UpdateCustomerCtx on both backends: it references
// the record page exactly twice — the read, then the write, §2.1.1's
// correlated pair that crp_collapses_per_op and
// TestCorrelatedUpdatesThroughDB rest on — and allocates nothing, because
// the filler is set in the page (and, on the durable store, flushed
// through the pin into a WAL frame the log owns).
func TestUpdateInPlace(t *testing.T) {
	for _, durable := range []bool{false, true} {
		var d *DB
		if durable {
			d = openDurable(t, t.TempDir())
		} else {
			var err error
			if d, err = Open(Config{Frames: 12}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.LoadCustomers(100); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		const cust = 42
		refs := func(op func() error) uint64 {
			t.Helper()
			before := d.PoolStats()
			if err := op(); err != nil {
				t.Fatal(err)
			}
			after := d.PoolStats()
			return after.Hits + after.Misses - before.Hits - before.Misses
		}
		descent := refs(func() error { _, _, err := d.index.GetCtx(ctx, cust); return err })
		update := refs(func() error { return d.UpdateCustomerCtx(ctx, cust, 0x5A) })
		if got := update - descent; got != 2 {
			t.Errorf("durable=%v: an update references its record page %d times (%d references, index descent %d), want 2",
				durable, got, update, descent)
		}
		fill := byte(0)
		if got := testing.AllocsPerRun(200, func() {
			fill++
			if err := d.UpdateCustomerCtx(ctx, cust, fill); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("durable=%v: UpdateCustomerCtx allocates %.2f times per call, want 0", durable, got)
		}
		rec, err := d.Lookup(cust)
		if err != nil {
			t.Fatal(err)
		}
		if int64(binary.LittleEndian.Uint64(rec)) != cust || rec[8] != fill || rec[len(rec)-1] != fill {
			t.Errorf("durable=%v: record after updates: id %d, filler %#x..%#x, want %d, %#x",
				durable, binary.LittleEndian.Uint64(rec), rec[8], rec[len(rec)-1], cust, fill)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
