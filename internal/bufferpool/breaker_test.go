package bufferpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
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
		pg, err := p.NewPageCtx(context.Background())
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
		if !p.lookup(id).dirty.Load() {
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
		id := storagetest.MustAllocate(m)
		p := NewWithConfig(cancellingDisk{Backend: m, cancel: cancel}, 4,
			core.NewSyncReplacer(2, core.Options{}), Config{Breaker: BreakerConfig{Threshold: 1}})
		defer p.Close()

		if _, err := p.FetchCtx(ctx, id); !errors.Is(err, context.Canceled) {
			t.Fatalf("fetch whose read was cancelled = %v, want context.Canceled", err)
		}
		if st := p.Stats(); st.ReadErrors != 0 || st.ReadsRejected != 0 || st.BreakerTrips != 0 || st.Misses != 1 {
			t.Errorf("cancelled miss: stats %+v, want one miss and no read error, rejection or trip", st)
		}
		pg, err := p.FetchCtx(context.Background(), id)
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
		d := storagetest.Wrap(s)
		const cooldown = 20 * time.Millisecond
		p := NewWithConfig(d, 4, core.NewSyncReplacer(2, core.Options{}), Config{
			Breaker: BreakerConfig{Threshold: 1, Cooldown: cooldown, Probes: 1},
		})
		defer p.Close()
		pg, err := p.NewPageCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		id := pg.ID()
		pg.Unpin(true)

		d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Count: 1}))
		if err := flushPage(context.Background(), p, id); !errors.Is(err, storagetest.ErrInjectedFault) {
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
		if p.BreakerOpen() {
			t.Error("circuit open after a successful probe")
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
	return newBreaker(cfg, clk.now)
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond, Probes: 2}, clk)

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.record(false)
	}
	if b.isOpen() {
		t.Fatal("breaker opened below threshold")
	}
	if !b.allow() {
		t.Fatal("closed breaker refused the threshold attempt")
	}
	b.record(false) // third consecutive failure: trip

	if !b.isOpen() {
		t.Fatal("breaker did not open at threshold")
	}
	if b.tripCount() != 1 {
		t.Fatalf("tripCount = %d, want 1", b.tripCount())
	}
	if b.allow() || b.ready() {
		t.Fatal("open breaker admitted traffic before cooldown")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 2}, clk)
	// failure, success, failure, success, ... never reaches 2 consecutive.
	for i := 0; i < 10; i++ {
		if !b.allow() {
			t.Fatalf("breaker refused attempt %d", i)
		}
		b.record(i%2 == 0)
	}
	if b.tripCount() != 0 {
		t.Fatal("interleaved failures tripped the breaker")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond, Probes: 2}, clk)
	b.allow()
	b.record(false) // trip

	clk.advance(49 * time.Millisecond)
	if b.allow() {
		t.Fatal("open breaker admitted a probe before cooldown elapsed")
	}
	clk.advance(2 * time.Millisecond)
	if !b.ready() {
		t.Fatal("ready = false after cooldown")
	}
	// First probe: admitted, and it holds the single probe slot.
	if !b.allow() {
		t.Fatal("half-open breaker refused the first probe")
	}
	if b.allow() || b.ready() {
		t.Fatal("second concurrent probe admitted while one is in flight")
	}
	b.record(true)
	// One success is not enough at Probes=2; still half-open, next probe ok.
	if !b.allow() {
		t.Fatal("half-open breaker refused the second probe")
	}
	b.record(true) // closes

	// Closed again: concurrent admissions flow freely.
	if !b.allow() || !b.allow() {
		t.Fatal("closed breaker serialising traffic like half-open")
	}
	b.record(true)
	b.record(true)
	if b.tripCount() != 1 {
		t.Fatalf("tripCount = %d, want 1", b.tripCount())
	}
}

func TestBreakerReopensOnProbeFailure(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond, Probes: 1}, clk)
	b.allow()
	b.record(false) // trip 1

	clk.advance(51 * time.Millisecond)
	if !b.allow() {
		t.Fatal("probe refused after cooldown")
	}
	b.record(false) // probe fails: trip 2, cooldown restarts from now

	if b.tripCount() != 2 {
		t.Fatalf("tripCount = %d, want 2", b.tripCount())
	}
	clk.advance(49 * time.Millisecond)
	if b.allow() {
		t.Fatal("reopened breaker did not restart its cooldown")
	}
	clk.advance(2 * time.Millisecond)
	if !b.allow() {
		t.Fatal("probe refused after the restarted cooldown")
	}
	b.record(true) // Probes=1: closes
	if b.isOpen() {
		t.Fatal("breaker still open after a successful probe at Probes=1")
	}
}

// TestBreakerStragglerRecordWhileOpen: an attempt admitted just before the
// trip may report its outcome after the circuit opened; the cooldown clock
// must stand.
func TestBreakerStragglerRecordWhileOpen(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond}, clk)
	b.allow()
	b.allow() // two concurrent attempts admitted while closed
	b.record(false)
	clk.advance(25 * time.Millisecond)
	b.record(true) // straggler success must not close or re-arm anything
	if !b.isOpen() {
		t.Fatal("straggler record closed an open breaker")
	}
	clk.advance(24 * time.Millisecond)
	if b.allow() {
		t.Fatal("straggler record restarted the cooldown")
	}
}

func TestBreakerDisabled(t *testing.T) {
	if b := newBreaker(BreakerConfig{}, time.Now); b != nil {
		t.Fatal("zero Threshold did not disable the breaker")
	}
	var b *breaker // nil breaker: everything admitted, nothing recorded
	if !b.allow() || !b.ready() {
		t.Fatal("nil breaker refused traffic")
	}
	b.record(false)
	if b.tripCount() != 0 || b.isOpen() {
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
	b.allow()
	b.record(false) // streak 1
	b.allow()
	b.release()
	b.allow()
	b.record(false) // streak 2: trip
	if b.tripCount() != 1 {
		t.Fatalf("tripCount = %d, want 1: a release reset the failure streak", b.tripCount())
	}

	clk.advance(51 * time.Millisecond)
	if !b.allow() {
		t.Fatal("probe refused after cooldown")
	}
	b.release()
	if b.isOpen() || b.tripCount() != 1 {
		t.Fatalf("released probe moved the state: open %v, trips %d", b.isOpen(), b.tripCount())
	}
	if !b.ready() || !b.allow() {
		t.Fatal("released probe slot not admissible")
	}
	b.record(true) // Probes=1: closes
	if !b.allow() || !b.allow() {
		t.Fatal("breaker not closed after the probe that followed a release")
	}
}

// TestBreakerConcurrentOutcomes drives one breaker from many goroutines
// (run it under -race). Each goroutine's seeded outcome stream fails at
// most maxRun times in a row, so no run of failures in the merged stream
// reaches Threshold unless a success failed to reset the streak. Failures
// alone then trip the circuit exactly once. Half-open, exactly one of the
// racing goroutines holds the probe slot, a released probe frees it, and a
// success short of Probes leaves the circuit half-open.
func TestBreakerConcurrentOutcomes(t *testing.T) {
	const (
		goroutines = 8
		maxRun     = 2
		rounds     = 2000
	)
	clk := newFakeClock()
	b := newTestBreaker(BreakerConfig{Threshold: goroutines*maxRun + 1, Cooldown: time.Second, Probes: 2}, clk)
	race := func(f func(g int)) {
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() { defer wg.Done(); f(g) }()
		}
		wg.Wait()
	}
	admitted := func() int {
		var n atomic.Int32
		race(func(int) {
			if b.allow() {
				n.Add(1)
			}
		})
		return int(n.Load())
	}

	race(func(g int) {
		rng := stats.NewRNG(uint64(g) + 1)
		run := 0
		for range rounds {
			if !b.allow() {
				t.Error("closed breaker refused an attempt: a success did not reset the streak")
				return
			}
			if run < maxRun && rng.Intn(2) == 0 {
				run++
				b.record(false)
			} else {
				run = 0
				b.record(true)
			}
		}
	})
	if n := b.tripCount(); n != 0 {
		t.Fatalf("interleaved outcomes tripped the breaker %d times, want 0", n)
	}

	race(func(int) {
		for b.allow() {
			b.record(false)
		}
	})
	if n := b.tripCount(); n != 1 || !b.isOpen() {
		t.Fatalf("failures alone: %d trips, open %v; want 1 and open", n, b.isOpen())
	}

	clk.advance(time.Second)
	if n := admitted(); n != 1 {
		t.Fatalf("%d goroutines admitted as the half-open probe, want 1", n)
	}
	b.release()
	if n := admitted(); n != 1 {
		t.Fatalf("%d goroutines admitted after a released probe, want 1", n)
	}
	b.record(true) // one of two probes
	if n := admitted(); n != 1 {
		t.Fatalf("%d goroutines admitted after one probe success at Probes 2, want 1", n)
	}
	b.record(true) // closes
	if n := admitted(); n != goroutines {
		t.Fatalf("closed breaker admitted %d of %d goroutines", n, goroutines)
	}
	for range goroutines {
		b.record(true)
	}
	if b.tripCount() != 1 || b.isOpen() {
		t.Fatalf("after recovery: %d trips, open %v; want 1 and closed", b.tripCount(), b.isOpen())
	}
}
