package sim

import (
	"runtime"
	"testing"

	"repro/internal/db"
	"repro/internal/stats"
)

// TestExample11Discrimination is the paper's Example 1.1 run end to end
// through the real B-tree and heap file: with the pool sized to hold about
// the index, LRU-2 retains far more index pages (and achieves a higher hit
// ratio) than LRU-1, which splits its frames between index and data pages.
func TestExample11Discrimination(t *testing.T) {
	// 2000 customers → 1000 data pages, 10 leaf pages + root. Pool of 16
	// frames comfortably fits the index but a vanishing fraction of data.
	const customers, lookups, frames = 2000, 20000, 16
	res2, err := RunExample11(db.Config{Frames: frames, K: 2}, customers, lookups, 11)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := RunExample11(db.Config{Frames: frames, K: 1}, customers, lookups, 11)
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
	whole2 := wholeIndexShare(t, db.Config{Frames: frames, K: 2}, customers, lookups, 11)
	whole1 := wholeIndexShare(t, db.Config{Frames: frames, K: 1}, customers, lookups, 11)
	if whole2 < 0.8 || whole1 > 0.05 {
		t.Errorf("whole index resident after %.2f of LRU-2's and %.2f of LRU-1's lookups, want >= 0.8 and <= 0.05",
			whole2, whole1)
	}
	// And it needs fewer disk reads for the same work.
	if res2.DiskReads >= res1.DiskReads {
		t.Errorf("LRU-2 disk reads %d not below LRU-1 %d", res2.DiskReads, res1.DiskReads)
	}
}

// TestExample11Deterministic runs Example 1.1 four times with one seed, the
// load's heap page writes on two workers: the results, simulated I/O time
// included, must be equal, since the load's writes are not counted.
func TestExample11Deterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := db.Config{Frames: 16, K: 2}
	first, err := RunExample11(cfg, 2000, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		again, err := RunExample11(cfg, 2000, 5000, 3)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("same seed, different results:\n%+v\n%+v", first, again)
		}
	}
}

// wholeIndexShare runs RunExample11's lookups and returns the share of the
// sampled points (every tenth lookup) at which every index page is resident.
func wholeIndexShare(t *testing.T, cfg db.Config, customers, lookups int, seed uint64) float64 {
	t.Helper()
	d, err := db.Open(cfg)
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
