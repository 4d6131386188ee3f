package btree

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/heapfile"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage/sim"
)

func newTree(t *testing.T, frames, maxLeaf, maxInternal int) *Tree {
	t.Helper()
	d := sim.New(sim.ServiceModel{})
	pool := bufferpool.New(d, frames, core.NewSyncReplacer(2, core.Options{}))
	t.Cleanup(func() {
		pool.Close()
		d.Close()
	})
	tr, err := NewWithOrder(pool, maxLeaf, maxInternal)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func ridFor(k int64) heapfile.RID {
	return heapfile.RID{Page: policy.PageID(k * 7), Slot: uint16(k % 100)}
}

func TestNewValidation(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	pool := bufferpool.New(d, 8, core.NewSyncReplacer(1, core.Options{}))
	if _, err := NewWithOrder(nil, 4, 4); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := NewWithOrder(pool, 1, 4); err == nil {
		t.Error("leaf fanout 1 accepted")
	}
	if _, err := NewWithOrder(pool, 4, 1); err == nil {
		t.Error("internal fanout 1 accepted")
	}
	if _, err := NewWithOrder(pool, 100000, 4); err == nil {
		t.Error("oversized leaf fanout accepted")
	}
	if _, err := New(pool); err != nil {
		t.Errorf("default order rejected: %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, 8, 4, 4)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok, err := tr.Get(42); err != nil || ok {
		t.Errorf("Get on empty = ok=%v err=%v", ok, err)
	}
	if err := tr.ScanRange(0, 1<<62, func(int64, heapfile.RID) bool {
		t.Error("ScanRange on empty tree visited a key")
		return true
	}); err != nil {
		t.Errorf("ScanRange on empty: %v", err)
	}
	if h, err := tr.Height(); err != nil || h != 1 {
		t.Errorf("Height = %d, %v", h, err)
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTree(t, 16, 4, 4)
	keys := []int64{50, 20, 80, 10, 30, 70, 90, 25, 27, 29}
	for _, k := range keys {
		if err := tr.Insert(k, ridFor(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for _, k := range keys {
		rid, ok, err := tr.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = ok=%v err=%v", k, ok, err)
		}
		if rid != ridFor(k) {
			t.Errorf("Get(%d) = %v, want %v", k, rid, ridFor(k))
		}
	}
	for _, k := range []int64{0, 15, 55, 100} {
		if _, ok, _ := tr.Get(k); ok {
			t.Errorf("Get(%d) found phantom key", k)
		}
	}
}

func TestInsertReplacesDuplicate(t *testing.T) {
	tr := newTree(t, 8, 4, 4)
	if err := tr.Insert(7, heapfile.RID{Page: 1, Slot: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(7, heapfile.RID{Page: 2, Slot: 2}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after duplicate insert", tr.Len())
	}
	rid, ok, _ := tr.Get(7)
	if !ok || rid != (heapfile.RID{Page: 2, Slot: 2}) {
		t.Errorf("Get = %v, %v", rid, ok)
	}
}

func TestDeepTreeSplits(t *testing.T) {
	// Tiny fanout forces many splits and a multi-level tree.
	tr := newTree(t, 32, 3, 3)
	const n = 500
	perm := stats.NewRNG(5).Perm(n)
	for _, k := range perm {
		if err := tr.Insert(int64(k), ridFor(int64(k))); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 4 {
		t.Errorf("Height = %d; fanout-3 tree with 500 keys should be deep", h)
	}
	for k := int64(0); k < n; k++ {
		rid, ok, err := tr.Get(k)
		if err != nil || !ok || rid != ridFor(k) {
			t.Fatalf("Get(%d) = %v ok=%v err=%v", k, rid, ok, err)
		}
	}
}

func TestScanRangeOrdered(t *testing.T) {
	tr := newTree(t, 32, 4, 4)
	keys := stats.NewRNG(9).Perm(300)
	for _, k := range keys {
		if err := tr.Insert(int64(k*2), ridFor(int64(k*2))); err != nil { // even keys only
			t.Fatal(err)
		}
	}
	var got []int64
	err := tr.ScanRange(100, 399, func(k int64, rid heapfile.RID) bool {
		got = append(got, k)
		if rid != ridFor(k) {
			t.Errorf("ScanRange rid for %d = %v", k, rid)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for k := int64(100); k <= 399; k += 2 {
		want = append(want, k)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("scan out of order")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	n := 0
	_ = tr.ScanRange(0, 1000, func(int64, heapfile.RID) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
	// Empty range.
	if err := tr.ScanRange(10, 5, func(int64, heapfile.RID) bool { return true }); err != nil {
		t.Errorf("inverted range: %v", err)
	}
	// A start between two leaves: one past the leftmost leaf's last key.
	// The descent lands on that leaf, which holds nothing in range, and the
	// walk must carry on to the next leaf's first key.
	last, first := leafBoundary(t, tr)
	if first != last+2 {
		t.Fatalf("leaf boundary %d | %d, want adjacent even keys", last, first)
	}
	var from []int64
	if err := tr.ScanRange(last+1, 1<<62, func(k int64, _ heapfile.RID) bool {
		from = append(from, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(from) != int(598-first)/2+1 || from[0] != first {
		t.Errorf("scan from %d (between leaves) returned %d keys starting %v, want %d starting %d",
			last+1, len(from), from[:min(len(from), 1)], int(598-first)/2+1, first)
	}
	// A start past the last key visits nothing.
	if err := tr.ScanRange(599, 1<<62, func(k int64, _ heapfile.RID) bool {
		t.Errorf("scan past the last key visited %d", k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstReferenceModel drives the tree and a map with random inserts
// (fresh keys and replacements) and lookups, verifying contents and order
// at the end.
func TestAgainstReferenceModel(t *testing.T) {
	tr := newTree(t, 64, 5, 5)
	ref := map[int64]heapfile.RID{}
	r := stats.NewRNG(777)
	for op := 0; op < 20000; op++ {
		k := int64(r.Intn(2000))
		switch r.Intn(4) {
		case 0, 1: // insert
			rid := heapfile.RID{Page: policy.PageID(op), Slot: uint16(op % 50)}
			if err := tr.Insert(k, rid); err != nil {
				t.Fatalf("op %d Insert(%d): %v", op, k, err)
			}
			ref[k] = rid
		case 2, 3: // get
			rid, ok, err := tr.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			wantRID, wantOK := ref[k]
			if ok != wantOK || (ok && rid != wantRID) {
				t.Fatalf("op %d Get(%d) = %v,%v, want %v,%v", op, k, rid, ok, wantRID, wantOK)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, reference %d", op, tr.Len(), len(ref))
		}
	}
	// Full ordered comparison via scan.
	var scanKeys []int64
	_ = tr.ScanRange(0, 1<<62, func(k int64, rid heapfile.RID) bool {
		scanKeys = append(scanKeys, k)
		if rid != ref[k] {
			t.Fatalf("scan rid for %d = %v, want %v", k, rid, ref[k])
		}
		return true
	})
	if len(scanKeys) != len(ref) {
		t.Fatalf("scan saw %d keys, want %d", len(scanKeys), len(ref))
	}
	if !sort.SliceIsSorted(scanKeys, func(i, j int) bool { return scanKeys[i] < scanKeys[j] }) {
		t.Error("scan not sorted")
	}
}

// TestQuickInsertLookup: any random key set round-trips and scans sorted.
func TestQuickInsertLookup(t *testing.T) {
	f := func(raw []int16) bool {
		tr := newTree(t, 64, 4, 4)
		uniq := map[int64]bool{}
		for _, k := range raw {
			if err := tr.Insert(int64(k), ridFor(int64(k))); err != nil {
				return false
			}
			uniq[int64(k)] = true
		}
		if tr.Len() != len(uniq) {
			return false
		}
		for k := range uniq {
			if _, ok, err := tr.Get(k); !ok || err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSurvivesTinyPool: the tree works through constant eviction as long
// as the pool can hold a root-to-leaf path plus split allocations.
func TestSurvivesTinyPool(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	pool := bufferpool.New(d, 8, core.NewSyncReplacer(2, core.Options{}))
	tr, err := NewWithOrder(pool, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for k := int64(0); k < n; k++ {
		if err := tr.Insert(k, ridFor(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := int64(0); k < n; k += 37 {
		rid, ok, err := tr.Get(k)
		if err != nil || !ok || rid != ridFor(k) {
			t.Fatalf("Get(%d) = %v ok=%v err=%v", k, rid, ok, err)
		}
	}
	if pool.Stats().Evictions == 0 {
		t.Error("test did not exercise eviction")
	}
}

func TestPagesClassification(t *testing.T) {
	tr := newTree(t, 32, 3, 3)
	for k := int64(0); k < 100; k++ {
		if err := tr.Insert(k, ridFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	pages := tr.Pages()
	if len(pages) < 10 {
		t.Errorf("only %d node pages for a fanout-3 tree with 100 keys", len(pages))
	}
	seen := map[policy.PageID]bool{}
	for _, p := range pages {
		if seen[p] {
			t.Errorf("duplicate page id %d in Pages()", p)
		}
		seen[p] = true
	}
	if !seen[tr.Root()] {
		t.Error("root not in Pages()")
	}
}

// leafBoundary returns the leftmost leaf's last key and the first key of
// the leaf after it.
func leafBoundary(t *testing.T, tr *Tree) (last, first int64) {
	t.Helper()
	id := tr.Root()
	for {
		pg, err := tr.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		data := pg.Data()
		if isLeaf(data) {
			last = leafKey(data, numKeys(data)-1)
			id = policy.PageID(extra(data))
			pg.Unpin(false)
			break
		}
		id = internalChild(data, 0)
		pg.Unpin(false)
	}
	pg, err := tr.pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unpin(false)
	return last, leafKey(pg.Data(), 0)
}
