package core

import (
	"testing"

	"repro/internal/policy"
)

// FuzzLRUKMatchesFigure21 feeds arbitrary reference strings plus
// configuration bytes to both the production LRU-K and the literal
// Figure 2.1 transcription and requires identical hit patterns.
func FuzzLRUKMatchesFigure21(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3}, uint8(2), uint8(3), uint8(0))
	f.Add([]byte{0, 0, 0, 1, 1, 1}, uint8(1), uint8(1), uint8(2))
	f.Add([]byte{9, 8, 7, 9, 8, 7, 9}, uint8(3), uint8(4), uint8(5))
	f.Add([]byte{4, 5, 4, 6, 5, 7, 4, 4, 8, 5}, uint8(1), uint8(2), uint8(129))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, capRaw, crpRaw uint8) {
		k := int(kRaw%4) + 1
		capacity := int(capRaw%8) + 1
		crp := policy.Tick(crpRaw % 6)
		c := NewLRUKWithOptions(capacity, k, Options{CorrelatedReferencePeriod: crp})
		b := newBrute(capacity, k, crp)
		for i, x := range raw {
			p := policy.PageID(x % 32)
			if got, want := c.Reference(p), b.reference(p); got != want {
				t.Fatalf("ref %d (page %d): LRUK hit=%v, Figure 2.1 hit=%v (k=%d cap=%d crp=%d)",
					i, p, got, want, k, capacity, crp)
			}
			if c.Len() > capacity {
				t.Fatalf("capacity exceeded: %d > %d", c.Len(), capacity)
			}
		}
		checkIndex(t, c.r.table)
	})
}

// FuzzReplacersMatchBruteForce runs TestReplacersMatchBruteForce's
// differential — Replacer, SyncReplacer and the brute-force model over one
// random operation stream that pins, unpins, evicts and restores live
// candidates, ending in checkAgainstBrute — at a fuzzed seed, K,
// Correlated Reference Period and Retained Information Period.
func FuzzReplacersMatchBruteForce(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(2), uint8(3), uint8(12))
	f.Add(uint64(3), uint8(3), uint8(5), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, crpRaw, ripRaw uint8) {
		var rip policy.Tick // 0 retains forever; otherwise 8..64
		if r := ripRaw % 58; r > 0 {
			rip = policy.Tick(r + 7)
		}
		opts := Options{CorrelatedReferencePeriod: policy.Tick(crpRaw % 6), RetainedInformationPeriod: rip}
		runBruteDifferential(t, int(kRaw%3)+1, opts, seed, 20)
	})
}
