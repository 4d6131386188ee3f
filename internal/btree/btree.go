// Package btree implements a disk-backed B+tree over the buffer pool: the
// clustered index of the paper's Example 1.1. Every node visit is a page
// reference through the pool, so index pages compete with data pages for
// buffer frames exactly as in the paper's motivating scenario.
//
// Keys are int64 (the CUST-ID of Example 1.1); values are heap-file RIDs.
// The tree is built, not grown: an Appender adds keys in ascending order at
// its right edge, and nothing inserts, replaces or removes a key after.
// Example 1.1's index is loaded once and then only read, and so is this
// one.
//
// The tree keeps its right spine, the open node at each level. A key past
// a full leaf starts the next leaf and goes up the spine as its separator:
// at each level it adds an entry to the open node or, if that is full,
// opens a new node beside it with no keys and the new child as its
// rightmost, and goes up again; past the top it grows a new root. So every
// node off the right spine is full, as Example 1.1's index is "packed
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
	last        int64           // the largest key, once count > 0
	spine       []policy.PageID // the open node at each level, leaf first; nil if appends are refused
	pages       []policy.PageID // all node pages, for page classification
}

// New returns an empty tree over the pool with page-size-derived fanout
// (204 leaf entries, 255 internal entries per 4 KByte node).
func New(pool *bufferpool.Pool) (*Tree, error) {
	return newWithOrder(pool, maxLeafLimit, maxInternalLimit)
}

// newWithOrder returns an empty tree with explicit fanout limits, used by
// tests to force deep trees with few keys.
func newWithOrder(pool *bufferpool.Pool, maxLeaf, maxInternal int) (*Tree, error) {
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
	t.spine = []policy.PageID{t.root}
	t.pages = append(t.pages, t.root)
	pg.Unpin(true)
	return t, nil
}

// Attach re-opens an existing tree whose node pages already live in the
// pool's storage backend (a durable store after crash recovery). It walks
// the tree breadth-first from root with the page-size-derived fanout,
// rebuilding the node-page directory and the key count from the leaves.
// The tree it returns takes no appends.
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

// GetCtx returns the RID stored under key; ok is false if absent. Every
// node visit on the root-to-leaf path is a pool FetchCtx, so an expired
// deadline abandons the descent (including a coalesced wait on another
// request's in-flight read) and returns the context's error. Concurrent
// GetCtx calls are safe once the tree is built.
//
// Node bytes are read without the page latch (bufferpool.Page.Latch). That
// holds only because nothing writes a node once the tree serves: the
// Appender runs on the one goroutine that loads the database before it
// serves requests, and the tree takes no other write. A node writer that
// runs while the tree serves must take the latch, and so must this.
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

// Insert appends key through a fresh Appender: one Append, with the
// rightmost leaf pinned for that key alone.
//
// Deprecated: use an Appender. Insert exists only so the benchmark harness,
// whose bench/probes.go calls it, still compiles. The next change to bench/
// deletes it together with that call.
func (t *Tree) Insert(key int64, rid heapfile.RID) error {
	a := t.NewAppender()
	defer a.Close()
	return a.Append(key, rid)
}

// Appender builds the tree from ascending keys, the bulk load's path. It
// keeps the rightmost leaf pinned, writes each key into it in place, and
// pins at most one other page. A key not above the last one is refused and
// leaves the tree unchanged. An attached tree refuses every key, and so does
// a tree whose last append failed part-way. While an Appender is open the
// tree must not be written any other way, and Close must run on every exit.
type Appender struct {
	t      *Tree
	leaf   bufferpool.Page
	pinned bool
	dirty  bool // leaf was written since it was pinned
}

// NewAppender returns an Appender over t, holding no pin yet.
func (t *Tree) NewAppender() *Appender { return &Appender{t: t} }

// Append stores rid under key, which must be above every key in the tree.
func (a *Appender) Append(key int64, rid heapfile.RID) error {
	t := a.t
	if t.spine == nil {
		return errors.New("btree: the tree takes no appends: it was attached, or an append failed part-way")
	}
	if t.count > 0 && key <= t.last {
		return fmt.Errorf("btree: key %d is not above the last key %d", key, t.last)
	}
	if !a.pinned {
		pg, err := t.pool.Fetch(t.spine[0])
		if err != nil {
			return fmt.Errorf("btree append: %w", err)
		}
		a.leaf, a.pinned, a.dirty = pg, true, false
	}
	if numKeys(a.leaf.Data()) == t.maxLeaf {
		// Chain the full leaf to a new one, pin that in its place, and push
		// key up the spine as the new leaf's separator.
		pg, err := t.pool.NewPage()
		if err != nil {
			return fmt.Errorf("btree: allocating leaf: %w", err)
		}
		initLeaf(pg.Data())
		setExtra(a.leaf.Data(), int64(pg.ID()))
		a.leaf.Unpin(true)
		a.leaf, a.dirty = pg, true
		t.spine[0] = pg.ID()
		t.pages = append(t.pages, pg.ID())
		if err := t.push(key, pg.ID()); err != nil {
			t.spine = nil // the new leaf has no separator, so stop building
			return err
		}
	}
	data := a.leaf.Data()
	n := numKeys(data)
	setLeafEntry(data, n, key, rid)
	setNumKeys(data, n+1)
	a.dirty = true
	t.count++
	t.last = key
	return nil
}

// push adds separator sep, with child as the new rightmost child, to the
// open node one level up. A full open node stays as it is: a new node with
// no keys and child as its rightmost opens beside it, and sep goes up a
// level. Past the top, a new root holds sep between the old root and child.
func (t *Tree) push(sep int64, child policy.PageID) error {
	for level := 1; level < len(t.spine); level++ {
		pg, err := t.pool.Fetch(t.spine[level])
		if err != nil {
			return fmt.Errorf("btree append: %w", err)
		}
		data := pg.Data()
		if n := numKeys(data); n < t.maxInternal {
			setInternalEntry(data, n, sep, policy.PageID(extra(data)))
			setExtra(data, int64(child))
			setNumKeys(data, n+1)
			pg.Unpin(true)
			return nil
		}
		pg.Unpin(false)
		if pg, err = t.pool.NewPage(); err != nil {
			return fmt.Errorf("btree: allocating internal node: %w", err)
		}
		initInternal(pg.Data())
		setExtra(pg.Data(), int64(child))
		child = pg.ID()
		t.spine[level] = child
		t.pages = append(t.pages, child)
		pg.Unpin(true)
	}
	pg, err := t.pool.NewPage()
	if err != nil {
		return fmt.Errorf("btree: allocating new root: %w", err)
	}
	data := pg.Data()
	initInternal(data)
	setNumKeys(data, 1)
	setInternalEntry(data, 0, sep, t.root)
	setExtra(data, int64(child))
	t.root = pg.ID()
	t.spine = append(t.spine, t.root)
	t.pages = append(t.pages, t.root)
	pg.Unpin(true)
	return nil
}

// Close releases the pinned leaf. It is idempotent.
func (a *Appender) Close() {
	if a.pinned {
		a.leaf.Unpin(a.dirty)
		a.pinned = false
	}
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
		id = policy.PageID(extra(data))
		pg.Unpin(false)
		h++
	}
}
