package btree

import (
	"context"
	"slices"
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
	tr, err := newWithOrder(pool, maxLeaf, maxInternal)
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
	if _, err := newWithOrder(nil, 4, 4); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := newWithOrder(pool, 1, 4); err == nil {
		t.Error("leaf fanout 1 accepted")
	}
	if _, err := newWithOrder(pool, 4, 1); err == nil {
		t.Error("internal fanout 1 accepted")
	}
	if _, err := newWithOrder(pool, 100000, 4); err == nil {
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
	if _, ok, err := tr.GetCtx(context.Background(), 42); err != nil || ok {
		t.Errorf("GetCtx on empty = ok=%v err=%v", ok, err)
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
	ctx := context.Background()
	tr := newTree(t, 16, 4, 4)
	keys := []int64{10, 20, 25, 27, 29, 30, 50, 70, 80, 90}
	for _, k := range keys {
		if err := tr.Insert(k, ridFor(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for _, k := range keys {
		rid, ok, err := tr.GetCtx(ctx, k)
		if err != nil || !ok {
			t.Fatalf("GetCtx(%d) = ok=%v err=%v", k, ok, err)
		}
		if rid != ridFor(k) {
			t.Errorf("GetCtx(%d) = %v, want %v", k, rid, ridFor(k))
		}
	}
	for _, k := range []int64{0, 15, 26, 28, 55, 100} {
		if _, ok, _ := tr.GetCtx(ctx, k); ok {
			t.Errorf("GetCtx(%d) found phantom key", k)
		}
	}
}

// TestInsertReplacesDuplicate: a key that is not above the last one, a
// duplicate or a smaller key, is refused, through Insert and an Appender
// alike, and the tree keeps its keys, their RIDs and its pages. An attached
// tree refuses every key, even one above its last.
func TestInsertReplacesDuplicate(t *testing.T) {
	ctx := context.Background()
	tr := newTree(t, 8, 4, 4)
	for k := int64(1); k <= 7; k++ {
		if err := tr.Insert(k, ridFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	pages := tr.Pages()
	a := tr.NewAppender()
	defer a.Close()
	for _, insert := range []func(int64, heapfile.RID) error{tr.Insert, a.Append} {
		for _, k := range []int64{7, 3, -1} {
			if err := insert(k, heapfile.RID{Page: 2, Slot: 2}); err == nil {
				t.Errorf("key %d after key 7 was accepted", k)
			}
		}
	}
	if tr.Len() != 7 || !slices.Equal(tr.Pages(), pages) {
		t.Errorf("Len %d over pages %v after refused keys, want 7 over %v", tr.Len(), tr.Pages(), pages)
	}
	for k := int64(1); k <= 7; k++ {
		if rid, ok, err := tr.GetCtx(ctx, k); err != nil || !ok || rid != ridFor(k) {
			t.Errorf("GetCtx(%d) = %v, %v, %v; want %v", k, rid, ok, err, ridFor(k))
		}
	}
	// The refusals left the Appender able to go on.
	if err := a.Append(8, ridFor(8)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if rid, ok, err := tr.GetCtx(ctx, 8); err != nil || !ok || rid != ridFor(8) {
		t.Errorf("GetCtx(8) = %v, %v, %v", rid, ok, err)
	}
	at, err := Attach(tr.pool, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := at.Insert(9, ridFor(9)); err == nil || at.Len() != 8 {
		t.Errorf("Insert into an attached tree = %v, Len %d; want a refusal and 8", err, at.Len())
	}
}

func TestDeepTreeSplits(t *testing.T) {
	// Tiny fanout forces many splits and a multi-level tree.
	tr := newTree(t, 32, 3, 3)
	const n = 500
	for k := int64(0); k < n; k++ {
		if err := tr.Insert(3*k, ridFor(3*k)); err != nil { // gaps between keys
			t.Fatalf("Insert(%d): %v", 3*k, err)
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
	for k := int64(0); k < 3*n; k++ {
		rid, ok, err := tr.GetCtx(context.Background(), k)
		if err != nil || ok != (k%3 == 0) || (ok && rid != ridFor(k)) {
			t.Fatalf("GetCtx(%d) = %v ok=%v err=%v", k, rid, ok, err)
		}
	}
}

func TestScanRangeOrdered(t *testing.T) {
	tr := newTree(t, 32, 4, 4)
	for k := int64(0); k < 600; k += 2 { // even keys only
		if err := tr.Insert(k, ridFor(k)); err != nil {
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

// TestAgainstReferenceModel drives the tree and a map with random appends
// (ascending keys at random gaps), refused keys at or below the last one,
// and lookups anywhere up to past the last key, verifying contents and
// order at the end.
func TestAgainstReferenceModel(t *testing.T) {
	ctx := context.Background()
	tr := newTree(t, 64, 5, 5)
	a := tr.NewAppender()
	defer a.Close()
	ref := map[int64]heapfile.RID{}
	r := stats.NewRNG(777)
	last := int64(0)
	for op := 0; op < 20000; op++ {
		rid := heapfile.RID{Page: policy.PageID(op), Slot: uint16(op % 50)}
		switch r.Intn(4) {
		case 0: // append
			last += 1 + int64(r.Intn(3))
			if err := a.Append(last, rid); err != nil {
				t.Fatalf("op %d Append(%d): %v", op, last, err)
			}
			ref[last] = rid
		case 1: // refused: at or below the last key
			if len(ref) == 0 {
				break
			}
			if k := last - int64(r.Intn(int(last)+1)); a.Append(k, rid) == nil {
				t.Fatalf("op %d: Append(%d) after %d accepted", op, k, last)
			}
		case 2, 3: // get
			k := int64(r.Intn(int(last) + 2))
			rid, ok, err := tr.GetCtx(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			wantRID, wantOK := ref[k]
			if ok != wantOK || (ok && rid != wantRID) {
				t.Fatalf("op %d GetCtx(%d) = %v,%v, want %v,%v", op, k, rid, ok, wantRID, wantOK)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, reference %d", op, tr.Len(), len(ref))
		}
	}
	a.Close()
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

// TestQuickInsertLookup: any random key set, appended in order, round-trips
// and the keys between its keys miss.
func TestQuickInsertLookup(t *testing.T) {
	ctx := context.Background()
	f := func(raw []int16) bool {
		tr := newTree(t, 64, 4, 4)
		uniq := map[int64]bool{}
		for _, k := range raw {
			uniq[int64(k)] = true
		}
		keys := make([]int64, 0, len(uniq))
		for k := range uniq {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			if err := tr.Insert(k, ridFor(k)); err != nil {
				return false
			}
		}
		if tr.Len() != len(uniq) {
			return false
		}
		for _, k := range keys {
			if rid, ok, err := tr.GetCtx(ctx, k); !ok || err != nil || rid != ridFor(k) {
				return false
			}
			if _, ok, err := tr.GetCtx(ctx, k+1); err != nil || ok != uniq[k+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSurvivesTinyPool: the tree is built and read through constant
// eviction in two frames, the pinned leaf and one other page.
func TestSurvivesTinyPool(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	pool := bufferpool.New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	tr, err := newWithOrder(pool, 4, 4)
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
		rid, ok, err := tr.GetCtx(context.Background(), k)
		if err != nil || !ok || rid != ridFor(k) {
			t.Fatalf("GetCtx(%d) = %v ok=%v err=%v", k, rid, ok, err)
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
		pg, err := tr.pool.FetchCtx(context.Background(), id)
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
	pg, err := tr.pool.FetchCtx(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unpin(false)
	return last, leafKey(pg.Data(), 0)
}
