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
		// Half the inputs run the table the way SyncReplacer does: index
		// re-filing deferred to the sync ahead of each victim search.
		c.table.batching = crpRaw >= 128
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
		checkIndex(t, c.table)
	})
}

// FuzzCacheOperations drives the generic cache with an arbitrary operation
// stream, checking structural invariants throughout.
func FuzzCacheOperations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 10, 20})
	f.Add([]byte{255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, err := NewIntCache[int](8, CacheOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			key := int64(op % 16)
			switch op % 3 {
			case 0:
				c.Put(key, i)
			case 1:
				if v, ok := c.Get(key); ok && v < 0 {
					t.Fatalf("corrupt value %d", v)
				}
			case 2:
				c.Delete(key)
			}
			if c.Len() > 8 {
				t.Fatalf("op %d: Len %d over capacity", i, c.Len())
			}
		}
		checkIndex(t, c.shards[0].table)
		if n := c.shards[0].table.candidates; n != c.Len() {
			t.Fatalf("%d victim candidates for %d live entries", n, c.Len())
		}
	})
}
