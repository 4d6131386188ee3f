// Package btree implements a disk-backed B+tree over the buffer pool: the
// clustered index of the paper's Example 1.1. Every node visit is a page
// reference through the pool, so index pages compete with data pages for
// buffer frames exactly as in the paper's motivating scenario.
//
// Keys are int64 (the CUST-ID of Example 1.1); values are heap-file RIDs.
// The tree is a unique index: inserting an existing key replaces its
// value. Keys are never removed, so nodes only ever split.
//
// A key past the last key of a full node splits it at its right edge: a
// leaf keeps all its entries and the new sibling starts with the key; an
// internal node keeps all its children, the separator is promoted, and
// the new sibling starts with no keys and the new child as its rightmost.
// Any other key splits a full node at its middle. So an ascending load
// fills every node off the right spine, as Example 1.1's index is "packed
// full": 20,000 CUST-IDs take 99 leaves and a root.
//
// Node page layout (little-endian):
//
//	byte  0      node type: 0 internal, 1 leaf
//	bytes 2-3    numKeys
//	bytes 8-15   leaf: next-leaf page id (-1 none); internal: rightmost child
//	bytes 16...  entries
//
// Internal entries are {key int64, child int64} (16 bytes): child_i holds
// keys in [key_{i-1}, key_i), the rightmost child holds keys >= the last
// key. Leaf entries are {key int64, page int64, slot uint32} (20 bytes).
package btree

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bufferpool"
	"repro/internal/heapfile"
	"repro/internal/policy"
	"repro/internal/storage"
)

const (
	nodeHeader       = 16
	internalEntry    = 16
	leafEntry        = 20
	maxInternalLimit = (storage.PageSize - nodeHeader) / internalEntry // 255
	maxLeafLimit     = (storage.PageSize - nodeHeader) / leafEntry     // 204
)

// ErrCorrupt reports a structurally invalid node page.
var ErrCorrupt = errors.New("btree: corrupt node page")

// Tree is a disk-backed B+tree index.
type Tree struct {
	pool        *bufferpool.Pool
	root        policy.PageID
	maxLeaf     int
	maxInternal int
	count       int
	pages       []policy.PageID // all node pages, for page classification
}

// New returns an empty tree over the pool with page-size-derived fanout
// (204 leaf entries, 255 internal entries per 4 KByte node).
func New(pool *bufferpool.Pool) (*Tree, error) {
	return NewWithOrder(pool, maxLeafLimit, maxInternalLimit)
}

// NewWithOrder returns an empty tree with explicit fanout limits, used by
// tests to force deep trees with few keys.
func NewWithOrder(pool *bufferpool.Pool, maxLeaf, maxInternal int) (*Tree, error) {
	if pool == nil {
		return nil, errors.New("btree: nil pool")
	}
	if maxLeaf < 2 || maxLeaf > maxLeafLimit {
		return nil, fmt.Errorf("btree: leaf fanout %d outside [2, %d]", maxLeaf, maxLeafLimit)
	}
	if maxInternal < 2 || maxInternal > maxInternalLimit {
		return nil, fmt.Errorf("btree: internal fanout %d outside [2, %d]", maxInternal, maxInternalLimit)
	}
	t := &Tree{pool: pool, maxLeaf: maxLeaf, maxInternal: maxInternal}
	pg, err := pool.NewPage()
	if err != nil {
		return nil, fmt.Errorf("btree: allocating root: %w", err)
	}
	initLeaf(pg.Data())
	t.root = pg.ID()
	t.pages = append(t.pages, t.root)
	pg.Unpin(true)
	return t, nil
}

// Attach re-opens an existing tree whose node pages already live in the
// pool's storage backend (a durable store after crash recovery). It walks
// the tree breadth-first from root with the page-size-derived fanout,
// rebuilding the node-page directory and the key count from the leaves.
func Attach(pool *bufferpool.Pool, root policy.PageID) (*Tree, error) {
	if pool == nil {
		return nil, errors.New("btree: nil pool")
	}
	t := &Tree{pool: pool, root: root, maxLeaf: maxLeafLimit, maxInternal: maxInternalLimit}
	queue := []policy.PageID{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		pg, err := pool.Fetch(id)
		if err != nil {
			return nil, fmt.Errorf("btree attach: %w", err)
		}
		data := pg.Data()
		if data[0] > 1 {
			pg.Unpin(false)
			return nil, fmt.Errorf("%w: page %d has node type %d", ErrCorrupt, id, data[0])
		}
		t.pages = append(t.pages, id)
		if isLeaf(data) {
			t.count += numKeys(data)
		} else {
			n := numKeys(data)
			for i := 0; i < n; i++ {
				queue = append(queue, internalChild(data, i))
			}
			if rm := policy.PageID(extra(data)); rm >= 0 {
				queue = append(queue, rm)
			}
		}
		pg.Unpin(false)
	}
	return t, nil
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.count }

// Root returns the current root page id.
func (t *Tree) Root() policy.PageID { return t.root }

// Pages returns the ids of all node pages ever allocated, for classifying
// references by page class in experiments.
func (t *Tree) Pages() []policy.PageID {
	out := make([]policy.PageID, len(t.pages))
	copy(out, t.pages)
	return out
}

// --- node page accessors ---

func isLeaf(data []byte) bool { return data[0] == 1 }
func numKeys(data []byte) int { return int(binary.LittleEndian.Uint16(data[2:4])) }
func setNumKeys(data []byte, n int) {
	binary.LittleEndian.PutUint16(data[2:4], uint16(n))
}

func extra(data []byte) int64 { return int64(binary.LittleEndian.Uint64(data[8:16])) }
func setExtra(data []byte, v int64) {
	binary.LittleEndian.PutUint64(data[8:16], uint64(v))
}

func initLeaf(data []byte) {
	data[0] = 1
	setNumKeys(data, 0)
	setExtra(data, -1)
}

func initInternal(data []byte) {
	data[0] = 0
	setNumKeys(data, 0)
	setExtra(data, -1)
}

func leafKey(data []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(data[nodeHeader+i*leafEntry:]))
}

func leafRID(data []byte, i int) heapfile.RID {
	base := nodeHeader + i*leafEntry
	return heapfile.RID{
		Page: policy.PageID(binary.LittleEndian.Uint64(data[base+8:])),
		Slot: uint16(binary.LittleEndian.Uint32(data[base+16:])),
	}
}

func setLeafEntry(data []byte, i int, key int64, rid heapfile.RID) {
	base := nodeHeader + i*leafEntry
	binary.LittleEndian.PutUint64(data[base:], uint64(key))
	binary.LittleEndian.PutUint64(data[base+8:], uint64(rid.Page))
	binary.LittleEndian.PutUint32(data[base+16:], uint32(rid.Slot))
}

func internalKey(data []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(data[nodeHeader+i*internalEntry:]))
}

func internalChild(data []byte, i int) policy.PageID {
	return policy.PageID(binary.LittleEndian.Uint64(data[nodeHeader+i*internalEntry+8:]))
}

func setInternalEntry(data []byte, i int, key int64, child policy.PageID) {
	base := nodeHeader + i*internalEntry
	binary.LittleEndian.PutUint64(data[base:], uint64(key))
	binary.LittleEndian.PutUint64(data[base+8:], uint64(child))
}

// leafSearch returns the index of the first entry with key >= k.
func leafSearch(data []byte, k int64) int {
	lo, hi := 0, numKeys(data)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(data, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the child page to descend into for key k: the first
// child whose separator exceeds k, else the rightmost child.
func childFor(data []byte, k int64) policy.PageID {
	n := numKeys(data)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if internalKey(data, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == n {
		return policy.PageID(extra(data))
	}
	return internalChild(data, lo)
}

// Get returns the RID stored under key; ok is false if absent.
func (t *Tree) Get(key int64) (heapfile.RID, bool, error) {
	return t.GetCtx(context.Background(), key)
}

// GetCtx is Get charged against ctx: every node visit on the root-to-leaf
// path is a pool FetchCtx, so an expired deadline abandons the descent
// (including a coalesced wait on another request's in-flight read) and
// returns the context's error. Concurrent GetCtx calls are safe once the
// tree is loaded; Insert requires external serialisation.
func (t *Tree) GetCtx(ctx context.Context, key int64) (heapfile.RID, bool, error) {
	id := t.root
	for {
		pg, err := t.pool.FetchCtx(ctx, id)
		if err != nil {
			return heapfile.RID{}, false, fmt.Errorf("btree get: %w", err)
		}
		data := pg.Data()
		if isLeaf(data) {
			i := leafSearch(data, key)
			if i < numKeys(data) && leafKey(data, i) == key {
				rid := leafRID(data, i)
				pg.Unpin(false)
				return rid, true, nil
			}
			pg.Unpin(false)
			return heapfile.RID{}, false, nil
		}
		next := childFor(data, key)
		pg.Unpin(false)
		if next < 0 {
			return heapfile.RID{}, false, fmt.Errorf("%w: negative child pointer in page %d", ErrCorrupt, id)
		}
		id = next
	}
}

// splitResult reports an insert that split its node.
type splitResult struct {
	split bool
	sep   int64         // smallest key of the new right sibling's subtree
	right policy.PageID // the new right sibling
}

// Insert stores rid under key, replacing any existing value for key.
func (t *Tree) Insert(key int64, rid heapfile.RID) error {
	res, replaced, err := t.insert(t.root, key, rid)
	if err != nil {
		return err
	}
	if !replaced {
		t.count++
	}
	if res.split {
		// Grow a new root above the old one.
		pg, err := t.pool.NewPage()
		if err != nil {
			return fmt.Errorf("btree: allocating new root: %w", err)
		}
		data := pg.Data()
		initInternal(data)
		setNumKeys(data, 1)
		setInternalEntry(data, 0, res.sep, t.root)
		setExtra(data, int64(res.right))
		t.root = pg.ID()
		t.pages = append(t.pages, t.root)
		pg.Unpin(true)
	}
	return nil
}

func (t *Tree) insert(id policy.PageID, key int64, rid heapfile.RID) (splitResult, bool, error) {
	pg, err := t.pool.Fetch(id)
	if err != nil {
		return splitResult{}, false, fmt.Errorf("btree insert: %w", err)
	}
	data := pg.Data()
	if isLeaf(data) {
		res, replaced, err := t.insertLeaf(&pg, key, rid)
		return res, replaced, err
	}
	child := childFor(data, key)
	// Keep the parent pinned across the child insert: a split must come
	// back to this very frame. A split therefore pins the root-to-leaf path
	// and the new sibling, tree height + 1 frames.
	res, replaced, err := t.insert(child, key, rid)
	if err != nil {
		pg.Unpin(false)
		return splitResult{}, false, err
	}
	if !res.split {
		pg.Unpin(false)
		return splitResult{}, replaced, nil
	}
	up, err := t.insertInternal(&pg, res.sep, child, res.right)
	return up, replaced, err
}

// Appender inserts ascending keys, the bulk load's path. It keeps the
// rightmost leaf pinned and writes a key above every key in the tree into
// it in place, as Insert would, with no descent. A full leaf, a smaller key
// or an empty leaf goes through Insert, the one split implementation, and
// the rightmost leaf is re-pinned. A full leaf splits at its right edge, so
// an ascending load leaves every leaf but the last full. While an Appender
// is open the tree must not be written any other way, and Close must run on
// every exit.
type Appender struct {
	t      *Tree
	leaf   bufferpool.Page
	pinned bool
	dirty  bool // leaf was written since it was pinned
}

// NewAppender returns an Appender over t, holding no pin yet.
func (t *Tree) NewAppender() *Appender { return &Appender{t: t} }

// Append stores rid under key.
func (a *Appender) Append(key int64, rid heapfile.RID) error {
	if a.pinned {
		data := a.leaf.Data()
		if n := numKeys(data); n > 0 && n < a.t.maxLeaf && key > leafKey(data, n-1) {
			setLeafEntry(data, n, key, rid)
			setNumKeys(data, n+1)
			a.t.count++
			a.dirty = true
			return nil
		}
		a.Close()
	}
	if err := a.t.Insert(key, rid); err != nil {
		return err
	}
	id := a.t.root
	for {
		pg, err := a.t.pool.Fetch(id)
		if err != nil {
			return fmt.Errorf("btree append: %w", err)
		}
		data := pg.Data()
		if isLeaf(data) {
			a.leaf, a.pinned, a.dirty = pg, true, false
			return nil
		}
		id = policy.PageID(extra(data))
		pg.Unpin(false)
	}
}

// Close releases the pinned leaf. It is idempotent.
func (a *Appender) Close() {
	if a.pinned {
		a.leaf.Unpin(a.dirty)
		a.pinned = false
	}
}

// insertLeaf adds (key, rid) to a pinned leaf, splitting if necessary.
// It unpins pg.
func (t *Tree) insertLeaf(pg *bufferpool.Page, key int64, rid heapfile.RID) (splitResult, bool, error) {
	data := pg.Data()
	n := numKeys(data)
	i := leafSearch(data, key)
	if i < n && leafKey(data, i) == key {
		setLeafEntry(data, i, key, rid)
		pg.Unpin(true)
		return splitResult{}, true, nil
	}
	if n < t.maxLeaf {
		// Shift entries right and insert.
		base := nodeHeader
		copy(data[base+(i+1)*leafEntry:base+(n+1)*leafEntry], data[base+i*leafEntry:base+n*leafEntry])
		setLeafEntry(data, i, key, rid)
		setNumKeys(data, n+1)
		pg.Unpin(true)
		return splitResult{}, false, nil
	}
	// Split: gather all n+1 entries, give the upper half to a new leaf.
	type entry struct {
		key int64
		rid heapfile.RID
	}
	entries := make([]entry, 0, n+1)
	for j := 0; j < n; j++ {
		entries = append(entries, entry{leafKey(data, j), leafRID(data, j)})
	}
	entries = append(entries, entry{})
	copy(entries[i+1:], entries[i:n])
	entries[i] = entry{key, rid}

	newPg, err := t.pool.NewPage()
	if err != nil {
		pg.Unpin(false)
		return splitResult{}, false, fmt.Errorf("btree: allocating leaf: %w", err)
	}
	newData := newPg.Data()
	initLeaf(newData)
	mid := (n + 1) / 2
	if i == n {
		mid = n // right edge: the full leaf keeps all it has
	}
	for j, e := range entries[:mid] {
		setLeafEntry(data, j, e.key, e.rid)
	}
	setNumKeys(data, mid)
	for j, e := range entries[mid:] {
		setLeafEntry(newData, j, e.key, e.rid)
	}
	setNumKeys(newData, len(entries)-mid)
	// Chain: new right sibling inherits the old next pointer.
	setExtra(newData, extra(data))
	setExtra(data, int64(newPg.ID()))

	sep := entries[mid].key
	right := newPg.ID()
	t.pages = append(t.pages, right)
	newPg.Unpin(true)
	pg.Unpin(true)
	return splitResult{split: true, sep: sep, right: right}, false, nil
}

// insertInternal adds separator sep for a split of child oldChild into
// (oldChild, right) to a pinned internal node, splitting it if necessary.
// It unpins pg.
func (t *Tree) insertInternal(pg *bufferpool.Page, sep int64, oldChild, right policy.PageID) (splitResult, error) {
	data := pg.Data()
	n := numKeys(data)
	// Position of the new separator: first index with key > sep.
	pos := 0
	for pos < n && internalKey(data, pos) <= sep {
		pos++
	}
	if n < t.maxInternal {
		base := nodeHeader
		copy(data[base+(pos+1)*internalEntry:base+(n+1)*internalEntry],
			data[base+pos*internalEntry:base+n*internalEntry])
		setInternalEntry(data, pos, sep, oldChild)
		if pos == n {
			setExtra(data, int64(right))
		} else {
			// The entry after the new one pointed at oldChild; it now owns
			// the new right sibling.
			k := internalKey(data, pos+1)
			setInternalEntry(data, pos+1, k, right)
		}
		setNumKeys(data, n+1)
		pg.Unpin(true)
		return splitResult{}, nil
	}
	// Split the internal node: materialise all n+1 entries plus rightmost.
	type entry struct {
		key   int64
		child policy.PageID
	}
	entries := make([]entry, 0, n+1)
	for j := 0; j < n; j++ {
		entries = append(entries, entry{internalKey(data, j), internalChild(data, j)})
	}
	rightmost := policy.PageID(extra(data))
	entries = append(entries, entry{})
	copy(entries[pos+1:], entries[pos:n])
	entries[pos] = entry{sep, oldChild}
	if pos == n {
		rightmost = right
	} else {
		entries[pos+1].child = right
	}

	total := n + 1
	mid := total / 2
	if pos == n {
		mid = n // right edge: promote sep; the new node holds only right
	}
	promoted := entries[mid].key

	newPg, err := t.pool.NewPage()
	if err != nil {
		pg.Unpin(false)
		return splitResult{}, fmt.Errorf("btree: allocating internal node: %w", err)
	}
	newData := newPg.Data()
	initInternal(newData)
	// Left keeps entries[:mid] with the promoted entry's child as its
	// rightmost; right gets entries[mid+1:] and the old rightmost.
	for j, e := range entries[:mid] {
		setInternalEntry(data, j, e.key, e.child)
	}
	setNumKeys(data, mid)
	setExtra(data, int64(entries[mid].child))
	for j, e := range entries[mid+1:] {
		setInternalEntry(newData, j, e.key, e.child)
	}
	setNumKeys(newData, total-mid-1)
	setExtra(newData, int64(rightmost))

	newID := newPg.ID()
	t.pages = append(t.pages, newID)
	newPg.Unpin(true)
	pg.Unpin(true)
	return splitResult{split: true, sep: promoted, right: newID}, nil
}

// ScanRange visits keys in [from, to] in ascending order via the leaf
// chain until fn returns false.
func (t *Tree) ScanRange(from, to int64, fn func(key int64, rid heapfile.RID) bool) error {
	if from > to {
		return nil
	}
	// Descend to the leaf containing from.
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return fmt.Errorf("btree scan: %w", err)
		}
		data := pg.Data()
		if isLeaf(data) {
			pg.Unpin(false)
			break
		}
		next := childFor(data, from)
		pg.Unpin(false)
		id = next
	}
	// Walk the leaf chain.
	for id >= 0 {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return fmt.Errorf("btree scan: %w", err)
		}
		data := pg.Data()
		n := numKeys(data)
		for i := leafSearch(data, from); i < n; i++ {
			k := leafKey(data, i)
			if k > to {
				pg.Unpin(false)
				return nil
			}
			if !fn(k, leafRID(data, i)) {
				pg.Unpin(false)
				return nil
			}
		}
		next := policy.PageID(extra(data))
		pg.Unpin(false)
		id = next
	}
	return nil
}

// Height returns the number of levels (1 for a lone leaf root).
func (t *Tree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return 0, err
		}
		data := pg.Data()
		if isLeaf(data) {
			pg.Unpin(false)
			return h, nil
		}
		id = internalChild(data, 0)
		if numKeys(data) == 0 {
			id = policy.PageID(extra(data))
		}
		pg.Unpin(false)
		h++
	}
}
