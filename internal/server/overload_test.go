package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/server/client"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// TestOverloadShedsAndBreakerSurfaces is the end-to-end overload story,
// run under -race:
//
//  1. Saturation: with 2 workers, a 2-deep admission queue, and a slowed
//     disk, a burst of concurrent requests must split into admitted ones
//     that all complete and shed ones that fail fast with StatusBusy —
//     and the BUSY replies must arrive promptly (shedding does no
//     database work), while the burst is still in flight.
//  2. Blackout: with every disk operation failing, repeated misses on one
//     page trip the disk's circuit breaker, and the client observes
//     the typed UNAVAILABLE status end to end.
//  3. Recovery: the disk heals, the breaker re-admits traffic through its
//     half-open probes, and a full flush drains the quarantine — the
//     server keeps serving throughout.
func TestOverloadShedsAndBreakerSurfaces(t *testing.T) {
	leakcheck.Check(t)
	const (
		customers = 512
		burst     = 24
	)
	var slow atomic.Bool
	faulty := storagetest.Wrap(sim.New(sim.ServiceModel{Delay: func(int64) {
		if slow.Load() {
			time.Sleep(50 * time.Millisecond)
		}
	}}))
	dbCfg := db.Config{
		Frames:  16,
		Backend: faulty,
		DiskBreaker: bufferpool.BreakerConfig{
			Threshold: 4,
			Cooldown:  50 * time.Millisecond,
			Probes:    1,
		},
	}
	srv, database := startServer(t, dbCfg, Config{Workers: 2, QueueDepth: 2}, customers)

	// --- Phase 1: saturate the admission queue. ---
	slow.Store(true)
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	results := make([]outcome, burst)
	var start sync.WaitGroup
	start.Add(1)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr().String())
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			defer cl.Close()
			start.Wait() // fire the whole burst at once
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			began := time.Now()
			// Distinct early keys: cold pages, so admitted requests hold
			// their worker for at least one slowed disk read.
			_, err = cl.Get(ctx, int64(i*2))
			results[i] = outcome{err: err, elapsed: time.Since(began)}
		}(i)
	}
	start.Done()
	wg.Wait()
	slow.Store(false)

	var ok, busy int
	for i, r := range results {
		switch {
		case r.err == nil:
			ok++
		case errors.Is(r.err, client.ErrBusy):
			busy++
			// A shed reply costs no database work; it must not have waited
			// behind the slow disk.
			if r.elapsed > 2*time.Second {
				t.Errorf("request %d: BUSY took %v, want prompt", i, r.elapsed)
			}
		default:
			t.Errorf("request %d: unexpected error %v", i, r.err)
		}
	}
	// Capacity during the burst is workers + queue = 4 slots against 24
	// simultaneous requests: both populations must be present.
	if busy == 0 {
		t.Error("saturation shed nothing: no BUSY replies")
	}
	if ok == 0 {
		t.Error("saturation completed nothing: every request was shed")
	}
	t.Logf("burst of %d: %d completed, %d shed busy", burst, ok, busy)

	// --- Phase 2: blackout trips the breaker; clients see UNAVAILABLE. ---
	// Churn the 16-frame pool with late keys first so the cold key's leaf
	// and heap pages are certainly evicted — the burst alone may not have
	// (under load, most of it is shed before touching the database).
	cl := dial(t, srv)
	for id := int64(customers - 64); id < customers; id++ {
		if _, err := cl.Get(context.Background(), id); err != nil {
			t.Fatalf("churn get %d: %v", id, err)
		}
	}
	faulty.SetPlan(storagetest.NewPlan(1, storagetest.Rule{}))
	coldKey := int64(3) // early key: its leaf/heap pages are long evicted
	sawUnavailable := false
	for attempt := 0; attempt < 100; attempt++ {
		_, err := cl.Get(context.Background(), coldKey)
		if err == nil {
			t.Fatal("get succeeded during total blackout")
		}
		if errors.Is(err, client.ErrUnavailable) {
			sawUnavailable = true
			break
		}
		// Until the circuit trips, failures surface as internal errors
		// (the injected fault); anything else is a bug.
		if !errors.Is(err, client.ErrRemote) {
			t.Fatalf("blackout attempt %d: unexpected error %v", attempt, err)
		}
	}
	if !sawUnavailable {
		t.Fatal("breaker never surfaced UNAVAILABLE to the client")
	}

	// --- Phase 3: heal and recover. ---
	faulty.SetPlan(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := database.FlushAll()
		quarantined := database.StatsSnapshot().Quarantined
		if err == nil && quarantined == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after heal: flush err %v, quarantined %d", err, quarantined)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The same server keeps serving after the storm. A circuit that
	// tripped on reads re-admits only through a half-open probe after its
	// cooldown, so the first gets may still see UNAVAILABLE — retry until a
	// probe lands.
	var rec []byte
	for {
		var err error
		rec, err = cl.Get(context.Background(), coldKey)
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrUnavailable) {
			t.Fatalf("get after recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-admitted reads after heal: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(rec) == 0 {
		t.Fatal("empty record after recovery")
	}
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server.Shed == 0 {
		t.Error("server counted no shed requests")
	}
	if stats.Server.Statuses["busy"] == 0 || stats.Server.Statuses["unavailable"] == 0 {
		t.Errorf("status counters missing overload outcomes: %v", stats.Server.Statuses)
	}
	if stats.DB.Pool.BreakerTrips == 0 {
		t.Error("pool recorded no breaker trip")
	}
	if stats.DB.Pool.ReadsRejected == 0 {
		t.Error("pool recorded no breaker-rejected reads")
	}
}

// TestDeadDiskTripsOneCircuit: the pool has one circuit for its one disk.
// With every read failing, Threshold failed misses on Threshold different
// heap pages open it; a miss on any other page then fails fast — answered
// UNAVAILABLE, with no disk attempt — and once the disk heals and the
// cooldown passes, Probes successful misses close it again.
func TestDeadDiskTripsOneCircuit(t *testing.T) {
	leakcheck.Check(t)
	const threshold, probes, cooldown = 4, 2, 30 * time.Millisecond
	faulty := storagetest.Wrap(sim.New(sim.ServiceModel{}))
	srv, database := startServer(t, db.Config{
		Frames:      16,
		Backend:     faulty,
		DiskBreaker: bufferpool.BreakerConfig{Threshold: threshold, Cooldown: cooldown, Probes: probes},
	}, Config{}, 200)
	cl := dial(t, srv)
	ctx := context.Background()

	// Two 2000-byte records fill a heap page, so keys ten apart sit on
	// different pages; the load leaves the index resident and no heap page.
	faulty.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpRead}))
	for i := range int64(threshold) {
		faults := faulty.Ledger().ReadFaults
		if _, err := cl.Get(ctx, 10*i); !errors.Is(err, client.ErrRemote) {
			t.Fatalf("get %d on a dead disk = %v, want an internal error", 10*i, err)
		}
		if n := faulty.Ledger().ReadFaults - faults; n != 1 {
			t.Fatalf("get %d made %d failed disk reads, want 1", 10*i, n)
		}
	}
	faults := faulty.Ledger().ReadFaults
	if _, err := cl.Get(ctx, 150); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("get after %d failed misses = %v, want UNAVAILABLE", threshold, err)
	}
	snap := database.StatsSnapshot()
	if faulty.Ledger().ReadFaults != faults || snap.Pool.ReadsRejected != 1 || !snap.BreakerOpen || snap.Pool.BreakerTrips != 1 {
		t.Fatalf("open circuit: %d disk attempts, %d rejected, open %v, %d trips; want 0, 1, true, 1",
			faulty.Ledger().ReadFaults-faults, snap.Pool.ReadsRejected, snap.BreakerOpen, snap.Pool.BreakerTrips)
	}

	faulty.SetPlan(nil)
	time.Sleep(cooldown + 10*time.Millisecond)
	for i := range int64(probes) {
		if _, err := cl.Get(ctx, 150+10*i); err != nil {
			t.Fatalf("probe get %d after the heal = %v", 150+10*i, err)
		}
	}
	if snap := database.StatsSnapshot(); snap.BreakerOpen || snap.Pool.BreakerTrips != 1 {
		t.Errorf("after %d probes: open %v, %d trips; want closed and 1", probes, snap.BreakerOpen, snap.Pool.BreakerTrips)
	}
}
