package db

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// TestCloseIdempotentAndFenced: Close flushes, stops background work, and
// fences the public API behind ErrClosed; calling it again replays the
// first result.
func TestCloseIdempotentAndFenced(t *testing.T) {
	leakcheck.Check(t)
	d, err := Open(Config{Frames: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadCustomers(10); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := d.Lookup(3); !errors.Is(err, ErrClosed) {
		t.Errorf("Lookup after Close = %v, want ErrClosed", err)
	}
	if err := d.UpdateCustomerCtx(context.Background(), 3, 0xAB); !errors.Is(err, ErrClosed) {
		t.Errorf("UpdateCustomer after Close = %v, want ErrClosed", err)
	}
	if _, err := d.ScanCustomersCtx(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("ScanCustomers after Close = %v, want ErrClosed", err)
	}
	if err := d.LoadCustomers(1); !errors.Is(err, ErrClosed) {
		t.Errorf("LoadCustomers after Close = %v, want ErrClosed", err)
	}
	if err := d.FlushAll(); !errors.Is(err, ErrClosed) {
		t.Errorf("FlushAll after Close = %v, want ErrClosed", err)
	}
	if err := d.FlushAllCtx(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("FlushAllCtx after Close = %v, want ErrClosed", err)
	}
}

// TestCloseStopsScrubber: a database with the background scrubber enabled
// must leave no goroutine behind after Close (the leak check enforces it).
func TestCloseStopsScrubber(t *testing.T) {
	leakcheck.Check(t)
	d, err := Open(Config{Frames: 32, ScrubInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadCustomers(20); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if _, err := d.Lookup(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFlushAllCtxHonoursDeadline: an expired context ends the flush sweep
// with its error instead of sweeping on.
func TestFlushAllCtxHonoursDeadline(t *testing.T) {
	d, err := Open(Config{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(50); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.FlushAllCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("FlushAllCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := d.FlushAllCtx(context.Background()); err != nil {
		t.Errorf("FlushAllCtx with live ctx: %v", err)
	}
}

// TestDBRetryAndBreakerWiring: the db's breaker config reaches the pool —
// a blacked-out disk trips the breaker so lookups fail fast with
// ErrDiskUnavailable until it heals.
func TestDBRetryAndBreakerWiring(t *testing.T) {
	leakcheck.Check(t)
	faulty := storagetest.Wrap(sim.New(sim.ServiceModel{}))
	d, err := Open(Config{
		Frames:  16,
		Backend: faulty,
		DiskBreaker: bufferpool.BreakerConfig{
			Threshold: 4,
			Cooldown:  5 * time.Millisecond,
			Probes:    1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(64); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Total blackout: enough consecutive failures trip the breaker and
	// lookups start failing fast.
	faulty.SetPlan(storagetest.NewPlan(4, storagetest.Rule{}))
	tripped := false
	for i := 0; i < 10000 && !tripped; i++ {
		_, err := d.Lookup(int64(i % 64))
		if err == nil {
			continue // buffer hit: unaffected by the outage, as designed
		}
		if errors.Is(err, bufferpool.ErrDiskUnavailable) {
			tripped = true
		} else if !errors.Is(err, storagetest.ErrInjectedFault) {
			t.Fatalf("unexpected blackout error: %v", err)
		}
	}
	if !tripped {
		t.Fatal("breaker never tripped during the blackout")
	}
	if s := d.PoolStats(); s.BreakerTrips == 0 || s.ReadsRejected == 0 {
		t.Errorf("breaker counters not reflected in stats: %+v", s)
	}

	// Heal: after the cooldown, probes close the circuit and every lookup
	// succeeds again.
	faulty.SetPlan(nil)
	deadline := time.Now().Add(5 * time.Second)
	for i := int64(0); i < 64; i++ {
		if _, err := d.Lookup(i); err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("lookup %d still failing long after heal: %v", i, err)
			}
			time.Sleep(time.Millisecond)
			i-- // retry this customer until the circuit closes
		}
	}
}

// TestQuarantineDrainsThroughDB: write-back faults quarantine pages under
// eviction pressure; once the fault clears, one FlushAll writes every one
// of them and empties the quarantine.
func TestQuarantineDrainsThroughDB(t *testing.T) {
	leakcheck.Check(t)
	faulty := storagetest.Wrap(sim.New(sim.ServiceModel{}))
	d, err := Open(Config{Frames: 4, Backend: faulty})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(16); err != nil {
		t.Fatal(err)
	}
	// Exactly three write faults on any page: eviction pressure from the
	// updates below quarantines some victims.
	faulty.SetPlan(storagetest.NewPlan(5, storagetest.Rule{Op: storage.OpWrite, Count: 3}))
	for i := int64(0); i < 16; i++ {
		if err := d.UpdateCustomerCtx(context.Background(), i, byte(i)); err != nil && !errors.Is(err, storagetest.ErrInjectedFault) {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if d.StatsSnapshot().Quarantined == 0 {
		t.Fatalf("nothing quarantined under the fault plan (%d write errors)", d.PoolStats().WriteErrors)
	}
	faulty.SetPlan(nil)
	if err := d.FlushAll(); err != nil {
		t.Fatalf("FlushAll after the fault cleared: %v", err)
	}
	if q := d.StatsSnapshot().Quarantined; q != 0 {
		t.Errorf("quarantine holds %d pages after a clean FlushAll, want 0", q)
	}
}

// TestOpenCloseRecyclesPageMemory opens, loads, reads and closes a database
// over the simulated disk ten times at 404 frames. The pool's frames and the
// disk's pages come from the process's page arena, and Close hands both
// back, so no cycle after the first maps a new chunk.
func TestOpenCloseRecyclesPageMemory(t *testing.T) {
	const customers = 2000
	var first int64
	for cycle := range 10 {
		d, err := Open(Config{Frames: 404, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.LoadCustomers(customers); err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < customers; id += 3 {
			if _, err := d.Lookup(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if cycle == 0 {
			first = storage.MappedChunks()
		} else if n := storage.MappedChunks() - first; n != 0 {
			t.Fatalf("cycle %d mapped %d new chunks, want 0 after the first", cycle, n)
		}
	}
}
