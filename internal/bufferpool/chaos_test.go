package bufferpool

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

// stormPlan is the steady-state fault plan of the chaos storm: one
// permanently poisoned page (every write-back fails) plus a 5%
// probabilistic fault rate on all reads and writes.
func stormPlan(seed uint64, poison policy.PageID) *storage.FaultPlan {
	return storage.NewFaultPlan(seed,
		storage.FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{poison}},
		storage.FaultRule{Probability: 0.05},
	)
}

// TestChaosFaultStorm replays a seeded multi-goroutine trace against a
// small pool while the disk injects a fault storm: one permanently
// poisoned page (every write-back fails until the storm ends) plus a 5%
// probabilistic fault rate on all reads and writes. The circuit breaker is
// armed, a slice of operations carries already-expired or
// tightly-deadlined contexts (exercising the waiter-abandon paths
// mid-storm), and halfway through one worker blacks the disk out
// completely until the breaker trips. Individual operations
// are allowed to fail — the pool is not. After the storm clears the test
// asserts the pool's invariants:
//
//   - frame accounting is exact: free + table-reachable == NumFrames
//     (nothing leaked by a failed load, an abandoned waiter, or a failed
//     write-back; nothing double-freed by racing waiters);
//   - no committed update is lost: flushes succeed once the disk heals and
//     every page's disk image carries the owner's last in-memory write,
//     including the poisoned page's;
//   - the quarantine drains to empty once write-backs succeed again;
//   - the breaker tripped during the blackout and the pool recovered
//     through half-open probes afterwards;
//   - the counters reconcile exactly with the disk's ledger: every
//     injected fault is a counted error, every breaker refusal
//     a rejection, every disk read a non-coalesced non-failed miss, every
//     disk write beyond the preload a successful write-back.
//
// Run it under -race; the storm drives the write-back failure, deferred
// restore, coalesced-error, abandonment, and breaker paths from many
// goroutines at once.
//
// The storm runs over each backend — the in-memory simulator and the
// durable file store. The invariants are backend-agnostic: the fault
// wrapper, breaker, and quarantine sit above the storage interface
// and must reconcile identically whether the pages live in RAM or in a
// WAL-protected page file — and the exact ledger reconciliation must
// survive buffered policy events draining mid-storm (stale buffered hits
// for evicted pages, flush-on-evict racing the blackout, restore after a
// poisoned write-back landing behind undrained events).
func TestChaosFaultStorm(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		runChaosFaultStorm(t, sim.New(sim.ServiceModel{}), true)
	})
	t.Run("file", func(t *testing.T) {
		s, err := file.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// No deadline-carrying contexts over the file store: its operations
		// take real wall-clock time (fsync, latch waits), so a microsecond
		// deadline can expire inside the backend and surface as an error no
		// fault was injected for, which would break the exact fault-ledger
		// reconciliation below. Already-cancelled contexts stay in: they are
		// rejected before the disk is touched.
		runChaosFaultStorm(t, s, false)
	})
}

func runChaosFaultStorm(t *testing.T, base storage.Backend, withDeadlines bool) {
	const (
		goroutines = 8
		pages      = 128
		frames     = 32
		opsPerG    = 3000
		seed       = 42
	)
	leakcheck.Check(t)
	d := storage.WithFaults(base)
	ids := make([]policy.PageID, pages)
	committed := make([]uint64, pages) // guarded by owner goroutine, read after Wait
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		ids[i] = storage.MustAllocate(d)
		committed[i] = uint64(1000 + i)
		binary.LittleEndian.PutUint64(buf, committed[i])
		if err := d.Write(context.Background(), ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	// tripTarget is fetched only during the blackout, to drive consecutive
	// failures into the breaker; it never becomes resident.
	tripTarget := storage.MustAllocate(d)
	preload := uint64(pages) // writes on disk before the storm starts

	poison := ids[0]
	d.SetFaults(stormPlan(seed, poison))

	p := NewWithConfig(d, frames, core.NewSyncReplacer(2, core.Options{}), Config{
		shards: 16,
		Breaker: BreakerConfig{
			Threshold: 8,
			Cooldown:  2 * time.Millisecond,
			Probes:    2,
		},
	})
	p.Start()

	expectedErr := func(err error) bool {
		return errors.Is(err, storage.ErrInjectedFault) ||
			errors.Is(err, ErrNoFreeFrame) ||
			errors.Is(err, ErrDiskUnavailable) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(seed + uint64(g))
			for op := 0; op < opsPerG; op++ {
				if g == 0 && op == opsPerG/2 {
					// Mid-storm blackout: every disk operation fails until the
					// breaker opens, then the storm resumes at its usual 5%.
					d.SetFaults(storage.NewFaultPlan(seed, storage.FaultRule{}))
					tripped := false
					for i := 0; i < 10000; i++ {
						_, err := p.Fetch(tripTarget)
						if err == nil {
							t.Error("fetch succeeded during total blackout")
							break
						}
						if errors.Is(err, ErrDiskUnavailable) {
							tripped = true
							break
						}
					}
					if !tripped {
						t.Error("breaker did not trip during the blackout")
					}
					d.SetFaults(stormPlan(seed+1, poison))
					continue
				}
				i := rng.Intn(pages)
				id := ids[i]
				own := i%goroutines == g
				if own && op%64 == 63 {
					// Occasional explicit flush of an owned page; failures are
					// part of the storm.
					_ = flushPage(context.Background(), p, id)
					continue
				}
				// A slice of fetches carries a context that is already dead or
				// about to die, driving the abandon and early-reject paths.
				ctx := context.Background()
				var cancel context.CancelFunc
				switch rng.Intn(16) {
				case 0:
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case 1:
					if withDeadlines {
						ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
					}
				}
				pg, err := p.FetchCtx(ctx, id)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					// Injected faults, exhausted sweeps, open circuits, and
					// expired contexts are expected storm casualties; anything
					// else is a pool bug.
					if !expectedErr(err) {
						t.Errorf("goroutine %d: fetch %d: %v", g, id, err)
					}
					continue
				}
				if own {
					// Only the owner touches page bytes, so page data needs no
					// lock of its own; everyone else contends on pool structures.
					v := committed[i] + 1
					binary.LittleEndian.PutUint64(pg.Data(), v)
					committed[i] = v
					pg.Unpin(true)
				} else {
					pg.Unpin(false)
				}
			}
		}(g)
	}
	wg.Wait()

	// Storm over: heal the disk. Circuits may still be open, so recovery is
	// a poll — half-open probes re-admit traffic, then a full flush goes
	// through and the quarantine empties.
	d.SetFaults(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := p.FlushAll()
		if err == nil && p.Quarantined() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not recover after the storm: flush err %v, quarantined %d", err, p.Quarantined())
		}
		time.Sleep(time.Millisecond)
	}
	free, tabled := frameAccounting(p)
	if free+tabled != p.NumFrames() {
		t.Errorf("frame accounting: %d free + %d resident != %d frames", free, tabled, p.NumFrames())
	}

	// Snapshot both ledgers before the verification reads below add to them.
	s, ds := p.Stats(), d.Stats()

	// No lost updates: every page's durable image is its owner's last
	// committed value — the poisoned page included, now that its quarantined
	// write-back finally went through.
	for i, id := range ids {
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Fatalf("post-storm read of page %d: %v", id, err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != committed[i] {
			t.Errorf("page %d: disk holds %d, owner committed %d (lost update)", id, got, committed[i])
		}
	}

	// Counter reconciliation against the disk's own ledger: every injected
	// fault was counted as a logical failure, exactly once.
	if s.ReadErrors != ds.ReadFaults {
		t.Errorf("pool counted %d read errors, disk injected %d read faults", s.ReadErrors, ds.ReadFaults)
	}
	if s.WriteErrors != ds.WriteFaults {
		t.Errorf("pool counted %d write errors, disk injected %d write faults", s.WriteErrors, ds.WriteFaults)
	}
	// Every disk read is a miss that neither coalesced, failed, nor was
	// refused by the breaker (the trace allocates pages directly, so there
	// are no new-page misses).
	if want := s.Misses - s.Coalesced - s.ReadErrors - s.ReadsRejected; ds.Reads != want {
		t.Errorf("disk reads = %d, want misses-coalesced-readErrors-readsRejected = %d", ds.Reads, want)
	}
	// Every disk write beyond the trace's preload is a successful write-back.
	if want := preload + s.WriteBacks; ds.Writes != want {
		t.Errorf("disk writes = %d, want preload+writeBacks = %d", ds.Writes, want)
	}
	if s.BreakerTrips == 0 {
		t.Error("blackout did not trip the breaker")
	}
	if s.Hits == 0 || s.Misses == 0 || s.WriteErrors == 0 || s.ReadErrors == 0 ||
		s.WriteBacks == 0 || s.ReadsRejected == 0 {
		t.Errorf("storm did not exercise all paths: %+v", s)
	}

	if err := p.Close(); err != nil {
		t.Errorf("Close after recovery: %v", err)
	}
}
