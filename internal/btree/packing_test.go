package btree

import (
	"context"
	"slices"
	"testing"

	"repro/internal/heapfile"
	"repro/internal/policy"
)

// node is one node page as levels sees it.
type node struct {
	id   policy.PageID
	keys int
	leaf bool
}

// levels returns the tree's nodes level by level, root first, each level
// left to right.
func levels(t testing.TB, tr *Tree) [][]node {
	t.Helper()
	var out [][]node
	for ids := []policy.PageID{tr.Root()}; len(ids) > 0; {
		var level []node
		var next []policy.PageID
		for _, id := range ids {
			pg, err := tr.pool.FetchCtx(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			data := pg.Data()
			n := numKeys(data)
			level = append(level, node{id: id, keys: n, leaf: isLeaf(data)})
			if !isLeaf(data) {
				for i := 0; i < n; i++ {
					next = append(next, internalChild(data, i))
				}
				next = append(next, policy.PageID(extra(data)))
			}
			pg.Unpin(false)
		}
		out = append(out, level)
		ids = next
	}
	return out
}

// minHeight is the fewest levels that hold n keys at the given fanouts.
func minHeight(n, maxLeaf, maxInternal int) int {
	h := 1
	for c := maxLeaf; c < n; c *= maxInternal + 1 {
		h++
	}
	return h
}

// checkPacked asserts what an ascending load leaves: every node off the
// right spine is full, the height is the minimum for the key count, and
// Pages names exactly the nodes reachable from the root.
func checkPacked(t testing.TB, tr *Tree) {
	t.Helper()
	lv := levels(t, tr)
	var ids []policy.PageID
	for d, level := range lv {
		for j, nd := range level {
			ids = append(ids, nd.id)
			want := tr.maxInternal
			if nd.leaf {
				want = tr.maxLeaf
			}
			if j < len(level)-1 && nd.keys != want {
				t.Fatalf("Len %d: level %d node %d (page %d) holds %d keys, want %d: only the right spine may be partly full",
					tr.Len(), d, j, nd.id, nd.keys, want)
			}
		}
	}
	if want := minHeight(tr.Len(), tr.maxLeaf, tr.maxInternal); len(lv) != want {
		t.Fatalf("Len %d at fanouts %d/%d: %d levels, want the minimum %d", tr.Len(), tr.maxLeaf, tr.maxInternal, len(lv), want)
	}
	if h, err := tr.Height(); err != nil || h != len(lv) {
		t.Fatalf("Height = %d, %v; the walk found %d levels", h, err, len(lv))
	}
	pages := tr.Pages()
	slices.Sort(ids)
	slices.Sort(pages)
	if !slices.Equal(ids, pages) {
		t.Fatalf("Pages() = %v, reachable nodes %v", pages, ids)
	}
}

// checkContents asserts the tree holds exactly ref: GetCtx finds every key
// with its RID, ScanRange returns them all in order, and Attach over the
// same root counts the same keys and pages.
func checkContents(t testing.TB, tr *Tree, ref map[int64]heapfile.RID) {
	t.Helper()
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	keys := make([]int64, 0, len(ref))
	for k, want := range ref {
		keys = append(keys, k)
		got, ok, err := tr.GetCtx(context.Background(), k)
		if err != nil || !ok || got != want {
			t.Fatalf("GetCtx(%d) = %v, %v, %v; want %v", k, got, ok, err, want)
		}
	}
	slices.Sort(keys)
	var scanned []int64
	if err := tr.ScanRange(-1<<62, 1<<62, func(k int64, rid heapfile.RID) bool {
		if rid != ref[k] {
			t.Fatalf("ScanRange RID for %d = %v, want %v", k, rid, ref[k])
		}
		scanned = append(scanned, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(scanned, keys) {
		t.Fatalf("ScanRange returned %d keys %v, want %d in order", len(scanned), scanned, len(keys))
	}
	at, err := Attach(tr.pool, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	want, got := tr.Pages(), at.Pages()
	slices.Sort(want)
	slices.Sort(got)
	if at.Len() != tr.Len() || !slices.Equal(got, want) {
		t.Fatalf("Attach: Len %d over %d pages, want %d over %d", at.Len(), len(got), tr.Len(), len(want))
	}
}

// TestAscendingLoadPacksEveryNode: ascending keys, whether each goes
// through Insert or an Appender, leave every node off the right spine full
// and the tree at its minimum height, after every key.
func TestAscendingLoadPacksEveryNode(t *testing.T) {
	const n = 300
	for maxLeaf := 3; maxLeaf <= 6; maxLeaf++ {
		for maxInternal := 3; maxInternal <= 6; maxInternal++ {
			for _, appender := range []bool{false, true} {
				tr := newTree(t, 64, maxLeaf, maxInternal)
				a := tr.NewAppender()
				insert := tr.Insert
				if appender {
					insert = a.Append
				}
				ref := map[int64]heapfile.RID{}
				for k := int64(1); k <= n; k++ {
					if err := insert(k, ridFor(k)); err != nil {
						t.Fatalf("fanouts %d/%d, key %d: %v", maxLeaf, maxInternal, k, err)
					}
					ref[k] = ridFor(k)
					checkPacked(t, tr)
				}
				a.Close()
				checkContents(t, tr, ref)
			}
		}
	}
}

// TestRightEdgeSplitLeavesZeroKeyNode: the key past a full root's last
// separator is promoted and the new internal node starts with no keys and
// the new leaf as its rightmost child. Lookups, scans, Height and Attach
// read through it, and later keys fill it.
func TestRightEdgeSplitLeavesZeroKeyNode(t *testing.T) {
	tr := newTree(t, 32, 3, 3)
	ref := map[int64]heapfile.RID{}
	insert := func(k int64) {
		t.Helper()
		if err := tr.Insert(k, ridFor(k)); err != nil {
			t.Fatal(err)
		}
		ref[k] = ridFor(k)
	}
	// 12 keys fill four 3-key leaves under a full 3-key root; the 13th
	// splits both at their right edge.
	for k := int64(1); k <= 13; k++ {
		insert(k)
	}
	lv := levels(t, tr)
	if len(lv) != 3 || len(lv[1]) != 2 || lv[1][0].keys != 3 || lv[1][1].keys != 0 {
		t.Fatalf("levels %v, want a root over a full internal node and a zero-key one", lv)
	}
	if got := lv[2][len(lv[2])-1]; got.keys != 1 {
		t.Fatalf("new leaf holds %d keys, want 1", got.keys)
	}
	checkPacked(t, tr)
	checkContents(t, tr, ref)
	var tail []int64
	if err := tr.ScanRange(13, 1<<62, func(k int64, _ heapfile.RID) bool {
		tail = append(tail, k)
		return true
	}); err != nil || !slices.Equal(tail, []int64{13}) {
		t.Fatalf("ScanRange from the zero-key node's subtree = %v, %v", tail, err)
	}
	// Key 16 splits the new leaf and gives the zero-key node its first key.
	for k := int64(14); k <= 16; k++ {
		insert(k)
	}
	if lv := levels(t, tr); lv[1][1].keys != 1 {
		t.Fatalf("right internal node holds %d keys after its child split, want 1", lv[1][1].keys)
	}
	checkPacked(t, tr)
	checkContents(t, tr, ref)
}

// FuzzTreeMatchesSortedMap drives the builder at a fuzzed fanout and frame
// count, through Insert or an Appender, with ascending keys at fuzzed gaps
// and keys at or below the last one, and holds it to a map. After every
// accepted key the tree finds it, misses the gap below it and the key
// above it, and is packed. A refused key leaves Len, Pages and its own
// lookup as they were. At the end every key is found with its RID, and
// ScanRange and Attach agree.
func FuzzTreeMatchesSortedMap(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), false, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 7, 0, 0})
	f.Add(uint8(3), uint8(1), uint8(12), true, []byte("ascending keys at gaps, then refused ones: \x03\x07\x0b"))
	f.Add(uint8(1), uint8(2), uint8(4), true, []byte{4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 3, 7, 11, 255, 1, 5, 9, 13})
	f.Add(uint8(2), uint8(3), uint8(60), false, []byte{2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, leafSel, internalSel, frameSel uint8, appender bool, ops []byte) {
		ctx := context.Background()
		maxLeaf, maxInternal := 3+int(leafSel%4), 3+int(internalSel%4)
		frames := 2 + int(frameSel%15) // the pinned leaf and one other page at the least
		tr := newTree(t, frames, maxLeaf, maxInternal)
		a := tr.NewAppender()
		defer a.Close()
		insert := tr.Insert
		if appender {
			insert = a.Append
		}
		ref := map[int64]heapfile.RID{}
		last := int64(0)
		for step, b := range ops[:min(len(ops), 300)] {
			rid := heapfile.RID{Page: policy.PageID(step), Slot: uint16(b)}
			if b%4 == 3 && len(ref) > 0 { // at or below the last key: refused
				key := last - int64(b>>2)
				n, pages := tr.Len(), tr.Pages()
				if err := insert(key, rid); err == nil {
					t.Fatalf("step %d: key %d after %d accepted", step, key, last)
				}
				want, wantOK := ref[key]
				if got, ok, err := tr.GetCtx(ctx, key); err != nil || ok != wantOK || got != want {
					t.Fatalf("step %d: GetCtx(%d) after its refusal = %v, %v, %v; want %v, %v", step, key, got, ok, err, want, wantOK)
				}
				if tr.Len() != n || !slices.Equal(tr.Pages(), pages) {
					t.Fatalf("step %d: a refused key moved Len %d -> %d, Pages %v -> %v", step, n, tr.Len(), pages, tr.Pages())
				}
				continue
			}
			gap := int64(b >> 2)
			key := last + 1 + gap
			if err := insert(key, rid); err != nil {
				t.Fatalf("step %d key %d: %v", step, key, err)
			}
			ref[key], last = rid, key
			if got, ok, err := tr.GetCtx(ctx, key); err != nil || !ok || got != rid {
				t.Fatalf("step %d: GetCtx(%d) = %v, %v, %v; want %v", step, key, got, ok, err, rid)
			}
			misses := []int64{key + 1}
			if gap > 0 {
				misses = append(misses, key-1)
			}
			for _, miss := range misses {
				if _, ok, err := tr.GetCtx(ctx, miss); err != nil || ok {
					t.Fatalf("step %d: GetCtx(%d) in a gap = %v, %v", step, miss, ok, err)
				}
			}
			if tr.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, map %d", step, tr.Len(), len(ref))
			}
			checkPacked(t, tr)
		}
		a.Close()
		checkContents(t, tr, ref)
	})
}
