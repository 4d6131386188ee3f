package bufferpool

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

// cancellingDisk cancels its caller's context inside a Read and fails the
// read with that context's error, as a backend that honours ctx mid-I/O
// does. Reads under any other context pass through.
type cancellingDisk struct {
	storage.Backend
	cancel context.CancelFunc
}

func (d cancellingDisk) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	d.cancel()
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.Backend.Read(ctx, p, buf)
}

// TestCallerCancellationIsNotADiskFailure: an attempt ended by the caller's
// own context is caller-class (DESIGN.md §10). It records no breaker
// outcome, counts no read or write error and quarantines nothing; the page
// stays dirty, and a half-open probe slot it held is handed back, so the
// next probe is admissible.
func TestCallerCancellationIsNotADiskFailure(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("flush", func(t *testing.T) {
		s, err := file.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		p := NewWithConfig(s, 4, core.NewSyncReplacer(2, core.Options{}), Config{
			Breaker: BreakerConfig{Threshold: 1},
		})
		defer p.Close()
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		id := pg.ID()
		pg.Unpin(true)

		if err := flushPage(cancelled, p, id); !errors.Is(err, context.Canceled) {
			t.Fatalf("flush under a cancelled ctx = %v, want context.Canceled", err)
		}
		if st := p.Stats(); st.WriteErrors != 0 || st.WritesRejected != 0 || st.BreakerTrips != 0 {
			t.Errorf("cancelled flush counted WriteErrors %d, WritesRejected %d, BreakerTrips %d; want 0/0/0",
				st.WriteErrors, st.WritesRejected, st.BreakerTrips)
		}
		if q := p.Quarantined(); q != 0 {
			t.Errorf("cancelled flush quarantined %d pages, want 0", q)
		}
		if !p.frameFor(id).dirty.Load() {
			t.Error("cancelled flush left the page clean")
		}
		if err := flushPage(context.Background(), p, id); err != nil {
			t.Fatalf("flush after a cancelled one = %v, want nil", err)
		}
		if st := p.Stats(); st.WriteBacks != 1 {
			t.Errorf("WriteBacks = %d, want 1", st.WriteBacks)
		}
	})

	t.Run("miss", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		m := sim.New(sim.ServiceModel{})
		id := storage.MustAllocate(m)
		p := NewWithConfig(cancellingDisk{Backend: m, cancel: cancel}, 4,
			core.NewSyncReplacer(2, core.Options{}), Config{Breaker: BreakerConfig{Threshold: 1}})
		defer p.Close()

		if _, err := p.FetchCtx(ctx, id); !errors.Is(err, context.Canceled) {
			t.Fatalf("fetch whose read was cancelled = %v, want context.Canceled", err)
		}
		if st := p.Stats(); st.ReadErrors != 0 || st.ReadsRejected != 0 || st.BreakerTrips != 0 || st.Misses != 1 {
			t.Errorf("cancelled miss: stats %+v, want one miss and no read error, rejection or trip", st)
		}
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch after a cancelled one = %v, want nil", err)
		}
		pg.Unpin(false)
	})

	t.Run("half-open probe", func(t *testing.T) {
		s, err := file.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		d := storage.WithFaults(s)
		const cooldown = 20 * time.Millisecond
		p := NewWithConfig(d, 4, core.NewSyncReplacer(2, core.Options{}), Config{
			Breaker: BreakerConfig{Threshold: 1, Cooldown: cooldown, Probes: 1},
		})
		defer p.Close()
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		id := pg.ID()
		pg.Unpin(true)

		d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Count: 1}))
		if err := flushPage(context.Background(), p, id); !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("faulted flush = %v, want the injected fault", err)
		}
		if st := p.Stats(); st.BreakerTrips != 1 {
			t.Fatalf("BreakerTrips = %d after a failure at Threshold 1, want 1", st.BreakerTrips)
		}
		time.Sleep(cooldown + 5*time.Millisecond)

		// Past the cooldown the cancelled flush is admitted as the probe;
		// its attempt says nothing about the disk, so the slot goes back.
		if err := flushPage(cancelled, p, id); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled probe = %v, want context.Canceled", err)
		}
		if err := flushPage(context.Background(), p, id); err != nil {
			t.Fatalf("probe after a cancelled probe = %v, want nil", err)
		}
		if st := p.Stats(); st.BreakerTrips != 1 || st.WriteErrors != 1 {
			t.Errorf("BreakerTrips %d, WriteErrors %d; want 1 and 1 (the injected fault only)",
				st.BreakerTrips, st.WriteErrors)
		}
		if n := p.BreakerOpenStripes(); n != 0 {
			t.Errorf("%d stripes open after a successful probe, want 0", n)
		}
		if q := p.Quarantined(); q != 0 {
			t.Errorf("%d pages quarantined after the page was written, want 0", q)
		}
	})
}

// fakeClock is a hand-advanced clock for driving the breaker's cooldown
// without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func newTestBreaker(cfg BreakerConfig, clk *fakeClock) *breaker {
	return newBreaker(cfg, 4, clk.now)
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond, Probes: 2}, clk)

	for i := 0; i < 2; i++ {
		if !b.allow(0) {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.record(0, false)
	}
	if b.openStripes() != 0 {
		t.Fatal("breaker opened below threshold")
	}
	if !b.allow(0) {
		t.Fatal("closed breaker refused the threshold attempt")
	}
	b.record(0, false) // third consecutive failure: trip

	if b.openStripes() != 1 {
		t.Fatal("breaker did not open at threshold")
	}
	if b.tripCount() != 1 {
		t.Fatalf("tripCount = %d, want 1", b.tripCount())
	}
	if b.allow(0) || b.ready(0) {
		t.Fatal("open breaker admitted traffic before cooldown")
	}
	// Other stripes are independent.
	if !b.allow(1) {
		t.Fatal("stripe 1 tripped by stripe 0's failures")
	}
	b.record(1, true)
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 2}, clk)
	// failure, success, failure, success, ... never reaches 2 consecutive.
	for i := 0; i < 10; i++ {
		if !b.allow(0) {
			t.Fatalf("breaker refused attempt %d", i)
		}
		b.record(0, i%2 == 0)
	}
	if b.tripCount() != 0 {
		t.Fatal("interleaved failures tripped the breaker")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond, Probes: 2}, clk)
	b.allow(0)
	b.record(0, false) // trip

	clk.advance(49 * time.Millisecond)
	if b.allow(0) {
		t.Fatal("open breaker admitted a probe before cooldown elapsed")
	}
	clk.advance(2 * time.Millisecond)
	if !b.ready(0) {
		t.Fatal("ready = false after cooldown")
	}
	// First probe: admitted, and it holds the stripe's single probe slot.
	if !b.allow(0) {
		t.Fatal("half-open breaker refused the first probe")
	}
	if b.allow(0) || b.ready(0) {
		t.Fatal("second concurrent probe admitted while one is in flight")
	}
	b.record(0, true)
	// One success is not enough at Probes=2; still half-open, next probe ok.
	if !b.allow(0) {
		t.Fatal("half-open breaker refused the second probe")
	}
	b.record(0, true) // closes

	// Closed again: concurrent admissions flow freely.
	if !b.allow(0) || !b.allow(0) {
		t.Fatal("closed breaker serialising traffic like half-open")
	}
	b.record(0, true)
	b.record(0, true)
	if b.tripCount() != 1 {
		t.Fatalf("tripCount = %d, want 1", b.tripCount())
	}
}

func TestBreakerReopensOnProbeFailure(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond, Probes: 1}, clk)
	b.allow(0)
	b.record(0, false) // trip 1

	clk.advance(51 * time.Millisecond)
	if !b.allow(0) {
		t.Fatal("probe refused after cooldown")
	}
	b.record(0, false) // probe fails: trip 2, cooldown restarts from now

	if b.tripCount() != 2 {
		t.Fatalf("tripCount = %d, want 2", b.tripCount())
	}
	clk.advance(49 * time.Millisecond)
	if b.allow(0) {
		t.Fatal("reopened breaker did not restart its cooldown")
	}
	clk.advance(2 * time.Millisecond)
	if !b.allow(0) {
		t.Fatal("probe refused after the restarted cooldown")
	}
	b.record(0, true) // Probes=1: closes
	if b.openStripes() != 0 {
		t.Fatal("breaker still open after a successful probe at Probes=1")
	}
}

// TestBreakerStragglerRecordWhileOpen: an attempt admitted just before the
// trip may report its outcome after the circuit opened; the cooldown clock
// must stand.
func TestBreakerStragglerRecordWhileOpen(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond}, clk)
	b.allow(0)
	b.allow(0) // two concurrent attempts admitted while closed
	b.record(0, false)
	clk.advance(25 * time.Millisecond)
	b.record(0, true) // straggler success must not close or re-arm anything
	if b.openStripes() != 1 {
		t.Fatal("straggler record closed an open breaker")
	}
	clk.advance(24 * time.Millisecond)
	if b.allow(0) {
		t.Fatal("straggler record restarted the cooldown")
	}
}

func TestBreakerDisabled(t *testing.T) {
	if b := newBreaker(BreakerConfig{}, 4, time.Now); b != nil {
		t.Fatal("zero Threshold did not disable the breaker")
	}
	var b *breaker // nil breaker: everything admitted, nothing recorded
	if !b.allow(0) || !b.ready(0) {
		t.Fatal("nil breaker refused traffic")
	}
	b.record(0, false)
	if b.tripCount() != 0 || b.openStripes() != 0 {
		t.Fatal("nil breaker reports state")
	}
}

// TestBreakerReleaseKeepsState: release returns an admission without an
// outcome. A released half-open probe frees the slot for the next probe
// and neither closes nor re-opens the circuit; a release while closed
// leaves the failure streak where it was.
func TestBreakerReleaseKeepsState(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond, Probes: 1}, clk)
	b.allow(0)
	b.record(0, false) // streak 1
	b.allow(0)
	b.release(0)
	b.allow(0)
	b.record(0, false) // streak 2: trip
	if b.tripCount() != 1 {
		t.Fatalf("tripCount = %d, want 1: a release reset the failure streak", b.tripCount())
	}

	clk.advance(51 * time.Millisecond)
	if !b.allow(0) {
		t.Fatal("probe refused after cooldown")
	}
	b.release(0)
	if b.openStripes() != 0 || b.tripCount() != 1 {
		t.Fatalf("released probe moved the state: open %d, trips %d", b.openStripes(), b.tripCount())
	}
	if !b.ready(0) || !b.allow(0) {
		t.Fatal("released probe slot not admissible")
	}
	b.record(0, true) // Probes=1: closes
	if !b.allow(0) || !b.allow(0) {
		t.Fatal("breaker not closed after the probe that followed a release")
	}
}
