package db

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// tornRecord reads each heap page from b, which must not be written
// meanwhile, and reports the first record whose filler (bytes 8.., which
// every update sets to one byte) is not one byte repeated: an image copied
// out of a frame while an update was half-way through the record. It
// parses the heap page layout (package heapfile) itself.
func tornRecord(b storage.Backend, pages []policy.PageID) error {
	buf := make([]byte, storage.PageSize)
	for _, id := range pages {
		if err := b.Read(context.Background(), id, buf); err != nil {
			return fmt.Errorf("reading page %d: %w", id, err)
		}
		slots := int(binary.LittleEndian.Uint16(buf[0:2]))
		for s := 0; s < slots; s++ {
			off := int(binary.LittleEndian.Uint16(buf[4+4*s:]))
			rec := buf[off : off+int(binary.LittleEndian.Uint16(buf[6+4*s:]))]
			for i, c := range rec[8:] {
				if c != rec[8] {
					return fmt.Errorf("page %d slot %d: filler byte %d is %#x, byte 0 is %#x", id, s, i, c, rec[8])
				}
			}
		}
	}
	return nil
}

// TestFlushAllRacingUpdatesWritesWholeRecords flushes the pool over and
// over while updates rewrite records in place, and reads every heap page
// back from the disk after each flush: the flush copies a frame out under
// its latch, so no written image holds half an update.
func TestFlushAllRacingUpdatesWritesWholeRecords(t *testing.T) {
	backend := sim.New(sim.ServiceModel{})
	d, err := Open(Config{Frames: 64, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const customers = 40
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // updates customers round robin, a fresh fill byte each
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.UpdateCustomerCtx(context.Background(), int64(i%customers), byte(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	for f := 0; f < 500; f++ {
		if err := d.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := tornRecord(backend, d.customers.Pages()); err != nil {
			t.Fatalf("after flush %d: %v", f, err)
		}
	}
}

// TestScrubRewriteRacingUpdateWritesWholeRecords races the scrubber's
// forced rewrite against an in-place update of the same page. Each round
// leaves the page resident and clean with its disk copy tainted beyond
// repair, so the sweep rewrites the page from its frame, while an update
// of the page's other record runs.
func TestScrubRewriteRacingUpdateWritesWholeRecords(t *testing.T) {
	inner := sim.New(sim.ServiceModel{})
	corrupter := storagetest.Wrap(inner)
	d, err := Open(Config{Frames: 16, Backend: corrupter})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(4); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	page := d.customers.Pages()[0] // customers 0 and 1
	for round := 0; round < 300; round++ {
		corrupter.SetPlan(storagetest.NewPlan(1,
			storagetest.Rule{Corrupt: storage.CorruptChecksum, Pages: []policy.PageID{page}, Count: 1, Unrepairable: true}))
		if err := d.UpdateCustomerCtx(ctx, 0, byte(round)); err != nil {
			t.Fatal(err)
		}
		if err := d.FlushAll(); err != nil { // the write that taints the page
			t.Fatal(err)
		}
		corrupter.SetPlan(nil)
		done := make(chan error, 1)
		go func() { done <- d.UpdateCustomerCtx(ctx, 1, byte(round)) }()
		d.ScrubSweep(ctx, inner.NumPages())
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := tornRecord(inner, []policy.PageID{page}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	s := d.PoolStats()
	if s.CorruptRepaired == 0 || s.CorruptQuarantined != 0 {
		t.Fatalf("%d scrub rewrites, %d pages poisoned; want some rewrites and every one from a resident frame",
			s.CorruptRepaired, s.CorruptQuarantined)
	}
}
