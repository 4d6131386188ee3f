package policy

import (
	"container/heap"
	"fmt"
)

// Belady is Belady's offline optimal algorithm ([BELADY]; B0 in the
// paper's notation after [ADU]): on a miss with a full cache it evicts the
// resident page whose next reference lies farthest in the future. It
// requires the full reference string in advance (an "oracle that can look
// into the future", §3), so the simulator installs the trace through
// SetTrace before the replay. The paper argues B0 is unapproachable in
// practice and uses A0 as the fair optimum; Belady is provided as the
// absolute upper bound.
type Belady struct {
	capacity int
	trace    []PageID
	nextUse  []int64 // nextUse[i]: next position of trace[i] after i, or horizon
	cursor   int64
	resident map[PageID]*beladyEntry
	order    beladyHeap // resident pages, farthest next use on top
}

// beladyEntry is a resident page's slot in the heap: its next use position
// and where the heap holds it, so a hit re-keys it with one heap.Fix.
type beladyEntry struct {
	next int64
	page PageID
	pos  int
}

// beladyHeap is a max-heap of resident pages by (next use, page), for
// container/heap.
type beladyHeap []*beladyEntry

func (h beladyHeap) Len() int { return len(h) }
func (h beladyHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next > h[j].next
	}
	return h[i].page > h[j].page
}
func (h beladyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *beladyHeap) Push(x any) {
	e := x.(*beladyEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *beladyHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// NewBelady returns a Belady/B0 cache. SetTrace must be called before the
// first Reference.
func NewBelady(capacity int) *Belady {
	c := &Belady{capacity: validateCapacity(capacity)}
	c.Reset()
	return c
}

// Name implements Cache.
func (c *Belady) Name() string { return "B0" }

// Capacity implements Cache.
func (c *Belady) Capacity() int { return c.capacity }

// Len implements Cache.
func (c *Belady) Len() int { return len(c.order) }

// Resident implements Cache.
func (c *Belady) Resident(p PageID) bool { return c.resident[p] != nil }

// Reset implements Cache. The installed trace is retained and the replay
// cursor rewinds to the beginning.
func (c *Belady) Reset() {
	c.cursor = 0
	c.resident = make(map[PageID]*beladyEntry)
	c.order = nil
}

// SetTrace implements TraceAware. It precomputes, for every position, the
// position of the next reference to the same page.
func (c *Belady) SetTrace(refs []PageID) {
	c.trace = refs
	c.nextUse = make([]int64, len(refs))
	last := make(map[PageID]int64, 1024)
	horizon := int64(len(refs))
	for i := int64(len(refs)) - 1; i >= 0; i-- {
		p := refs[i]
		if nxt, ok := last[p]; ok {
			c.nextUse[i] = nxt
		} else {
			// No later reference: unique horizon+i keeps keys distinct and
			// orders never-again pages by staleness.
			c.nextUse[i] = horizon + (horizon - i)
		}
		last[p] = i
	}
	c.Reset()
}

// Reference implements Cache. Calls must replay the installed trace in
// order; a mismatch panics, as it indicates a simulator bug.
func (c *Belady) Reference(p PageID) bool {
	if c.trace == nil {
		panic("policy: Belady.Reference before SetTrace")
	}
	if c.cursor >= int64(len(c.trace)) {
		panic("policy: Belady.Reference past end of installed trace")
	}
	if c.trace[c.cursor] != p {
		panic(fmt.Sprintf("policy: Belady trace mismatch at %d: replaying %d, installed %d",
			c.cursor, p, c.trace[c.cursor]))
	}
	next := c.nextUse[c.cursor]
	c.cursor++

	if e := c.resident[p]; e != nil {
		e.next = next
		heap.Fix(&c.order, e.pos)
		return true
	}
	if len(c.order) < c.capacity {
		e := &beladyEntry{next: next, page: p}
		heap.Push(&c.order, e)
		c.resident[p] = e
		return false
	}
	// The victim's entry becomes the admitted page's.
	e := c.order[0]
	delete(c.resident, e.page)
	e.next, e.page = next, p
	heap.Fix(&c.order, 0)
	c.resident[p] = e
	return false
}
