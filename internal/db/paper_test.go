package db

import (
	"context"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// hitRatioThroughDB loads customers into a fresh database with the given
// history depth, then issues n operations, each naming a customer (next)
// and whether to update it, and returns the pool hit ratio over those
// operations. Every other setting is the service default, so the replacer
// runs with the periods db.Open derives.
func hitRatioThroughDB(t *testing.T, k, customers, n int, next func() (cust int64, update bool)) float64 {
	t.Helper()
	d, err := Open(Config{Frames: 100, K: k})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	before := d.PoolStats()
	for i := 0; i < n; i++ {
		cust, update := next()
		if update {
			err = d.UpdateCustomerCtx(context.Background(), cust, byte(i))
		} else {
			_, err = d.Lookup(cust)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	after := d.PoolStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	return float64(hits) / float64(hits+misses)
}

// TestCorrelatedUpdatesThroughDB is §2.1.1's case in the service: an
// update reads its record page and then writes it, a correlated pair that
// must not count as two references. Without a Correlated Reference Period
// every updated page looks hot and LRU-2 loses to LRU-1 (EXPERIMENTS.md's
// TPC-A row: 0.776 against 0.810); the period db.Open derives restores the
// win.
func TestCorrelatedUpdatesThroughDB(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("200k single-threaded updates per configuration: a measurement, not a race target")
	}
	const customers, hot, updates = 20000, 400, 200000
	run := func(k int) float64 {
		rng := stats.NewRNG(27)
		return hitRatioThroughDB(t, k, customers, updates, func() (int64, bool) {
			if rng.Float64() < 0.2 {
				return int64(rng.Intn(hot)), true
			}
			return int64(rng.Intn(customers)), true
		})
	}
	lru1, lru2 := run(1), run(2)
	t.Logf("pool hit ratio: LRU-1 %.3f, LRU-2 %.3f", lru1, lru2)
	if lru2 < lru1+0.02 {
		t.Errorf("LRU-2 %.3f does not beat LRU-1 %.3f by 0.02: correlated pairs are being counted as references", lru2, lru1)
	}
}

// TestTwoPoolThroughDB is the paper's §4.1 headline through the service
// rather than the simulator: data-page references strictly alternate a
// 100-page hot pool and a 9,900-page cold pool (customers 2p and 2p+1
// share data page p), one in ten is an update, and B = 100 frames hold the
// index as well. Hit ratio must rise with K through K = 3.
func TestTwoPoolThroughDB(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("three single-threaded 100k-operation runs: a measurement, not a race target")
	}
	const customers, ops = 20000, 100000
	var ratios [4]float64
	for k := 1; k <= 3; k++ {
		rng := stats.NewRNG(41)
		pages := workload.NewTwoPool(100, customers/2-100, 41)
		ratios[k] = hitRatioThroughDB(t, k, customers, ops, func() (int64, bool) {
			return 2*int64(pages.Next()) + int64(rng.Intn(2)), rng.Float64() < 0.1
		})
	}
	t.Logf("pool hit ratio: LRU-1 %.3f, LRU-2 %.3f, LRU-3 %.3f", ratios[1], ratios[2], ratios[3])
	if !(ratios[1] < ratios[2] && ratios[2] <= ratios[3]) {
		t.Errorf("hit ratios LRU-1 %.3f, LRU-2 %.3f, LRU-3 %.3f: want LRU-1 < LRU-2 <= LRU-3",
			ratios[1], ratios[2], ratios[3])
	}
}
