package policy

import "container/heap"

// A0 is the optimal statistical policy of Definition 3.1 ([COFFDENN],
// Theorem 6.3): with the true reference-probability vector β known, it
// keeps buffer-resident the B referenced pages of highest β. A page whose
// probability does not exceed the minimum resident probability is used and
// released without displacing anything (the optimal policy never trades a
// hotter page for a colder one), so the steady-state hit ratio is the sum
// of the top-B probabilities.
//
// Workload generators publish their true β vector; the simulator installs
// it through SetProbabilities before the run.
type A0 struct {
	capacity int
	probs    map[PageID]float64
	resident map[PageID]bool
	order    a0Heap // resident pages, lowest (β, page) on top
}

type a0Key struct {
	prob float64
	page PageID
}

// a0Heap is a min-heap of resident pages by (β, page), for container/heap.
type a0Heap []a0Key

func (h a0Heap) Len() int { return len(h) }
func (h a0Heap) Less(i, j int) bool {
	if h[i].prob != h[j].prob {
		return h[i].prob < h[j].prob
	}
	return h[i].page < h[j].page
}
func (h a0Heap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *a0Heap) Push(x any)   { *h = append(*h, x.(a0Key)) }
func (h *a0Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// NewA0 returns an A0 oracle with the given frame count. Probabilities must
// be installed with SetProbabilities before the first Reference.
func NewA0(capacity int) *A0 {
	c := &A0{capacity: validateCapacity(capacity)}
	c.Reset()
	return c
}

// Name implements Cache.
func (c *A0) Name() string { return "A0" }

// Capacity implements Cache.
func (c *A0) Capacity() int { return c.capacity }

// Len implements Cache.
func (c *A0) Len() int { return len(c.order) }

// Resident implements Cache.
func (c *A0) Resident(p PageID) bool { return c.resident[p] }

// Reset implements Cache. Installed probabilities are retained.
func (c *A0) Reset() {
	c.resident = make(map[PageID]bool)
	c.order = nil
}

// SetProbabilities implements ProbabilityAware.
func (c *A0) SetProbabilities(probs map[PageID]float64) {
	c.probs = probs
}

// Reference implements Cache.
func (c *A0) Reference(p PageID) bool {
	if c.resident[p] {
		return true
	}
	key := a0Key{prob: c.probs[p], page: p} // unknown pages default to probability zero
	if len(c.order) < c.capacity {
		heap.Push(&c.order, key)
	} else if key.prob > c.order[0].prob {
		delete(c.resident, c.order[0].page)
		c.order[0] = key
		heap.Fix(&c.order, 0)
	} else {
		return false
	}
	c.resident[p] = true
	return false
}
