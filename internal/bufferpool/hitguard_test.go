package bufferpool

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// hitBench measures the steady-state resident-hit cost of one pool
// implementation: warm a hot set, then time random hit fetches from a
// single goroutine (single-goroutine numbers are far more stable on
// shared CI hardware than contended ones, and the guarded regressions —
// a lock, an allocation, a second replacer event on the hit path —
// inflate them just the same).
func hitBench(build func(d storage.Backend) hitPool) testing.BenchmarkResult {
	const hotSet = 256
	return testing.Benchmark(func(b *testing.B) {
		d := sim.New(sim.ServiceModel{})
		ids := make([]policy.PageID, hotSet)
		for i := range ids {
			ids[i] = storage.MustAllocate(d)
		}
		bench := build(d)
		for _, id := range ids {
			if err := bench.fetchRelease(id, false); err != nil {
				b.Fatal(err)
			}
		}
		r := stats.NewRNG(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bench.fetchRelease(ids[r.Intn(hotSet)], false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestHitPathCeiling is the hot-path regression gate behind `make
// bench-hit` (and `make check`). It gates three things about the pool's
// resident hit: it allocates nothing (an exact count, host-independent —
// the page handle is a value and the replacer event lands in a
// preallocated ring), it stays under an absolute ceiling, and it costs at
// most 0.8 of the Serial reference pool, whose one mutex and three
// replacer calls per fetch (the reference and an evictability flip at pin
// and at unpin, each re-filing the page in the victim index) it exists to
// beat. Over this loop's uniform 256-page hot set the pool measures
// 170–190 ns/op on the shared 2-vCPU reference container, and Serial
// 300–390; the ceiling is far above both so loaded CI boxes do not flake,
// while still catching a lock held across the hit. The regressions that
// leave the absolute figure under the ceiling (a second replacer event or
// a per-frame latch back on the hit) are the relative gate's. Skipped
// under -race (the detector multiplies atomic costs) and in -short mode.
func TestHitPathCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("hit-path ceiling is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping hit-path ceiling in short mode")
	}
	pool := hitBench(func(d storage.Backend) hitPool {
		return poolBench{New(d, 512, core.NewSyncReplacer(2, core.Options{}))}
	})
	if got := pool.AllocsPerOp(); got != 0 {
		t.Errorf("pool hit allocates %d times per op, want 0", got)
	}
	const ceilingNs = 1300
	if got := pool.NsPerOp(); got > ceilingNs {
		t.Errorf("pool hit costs %d ns/op, ceiling %d ns", got, ceilingNs)
	}
	serial := hitBench(func(d storage.Backend) hitPool {
		return serialBench{NewSerial(d, 512, core.NewReplacer(2, core.Options{}))}
	})
	// Relative gate, immune to the host's absolute speed. The pool measures
	// 0.45–0.6 of Serial; tripping the bound means the hit path's win is
	// gone, not that the box was busy.
	p, s := pool.NsPerOp(), serial.NsPerOp()
	t.Logf("pool hit %d ns/op, %d allocs/op; Serial reference %d ns/op", p, pool.AllocsPerOp(), s)
	if float64(p) > 0.8*float64(s) {
		t.Errorf("pool hit costs %d ns/op vs the Serial reference pool's %d ns/op; want at most 0.8 of it", p, s)
	}
}
