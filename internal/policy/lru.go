package policy

// LRU is the classical Least Recently Used policy — LRU-1 in the paper's
// taxonomy. On a miss with a full cache it evicts the page whose most
// recent reference lies farthest in the past.
type LRU struct {
	capacity int
	list     *pageList // front = most recent, back = victim
}

// NewLRU returns an LRU cache with the given frame count.
func NewLRU(capacity int) *LRU {
	return &LRU{capacity: validateCapacity(capacity), list: newPageList()}
}

// Name implements Cache.
func (c *LRU) Name() string { return "LRU-1" }

// Capacity implements Cache.
func (c *LRU) Capacity() int { return c.capacity }

// Len implements Cache.
func (c *LRU) Len() int { return c.list.Len() }

// Resident implements Cache.
func (c *LRU) Resident(p PageID) bool { return c.list.Contains(p) }

// Reference implements Cache.
func (c *LRU) Reference(p PageID) bool {
	if c.list.MoveToFront(p) {
		return true
	}
	if c.list.Len() >= c.capacity {
		c.list.PopBack()
	}
	c.list.PushFront(p)
	return false
}

// Reset implements Cache.
func (c *LRU) Reset() { c.list.Clear() }

// FIFO evicts pages in arrival order regardless of intervening references.
type FIFO struct {
	capacity int
	list     *pageList // front = newest arrival, back = oldest arrival
}

// NewFIFO returns a FIFO cache with the given frame count.
func NewFIFO(capacity int) *FIFO {
	return &FIFO{capacity: validateCapacity(capacity), list: newPageList()}
}

// Name implements Cache.
func (c *FIFO) Name() string { return "FIFO" }

// Capacity implements Cache.
func (c *FIFO) Capacity() int { return c.capacity }

// Len implements Cache.
func (c *FIFO) Len() int { return c.list.Len() }

// Resident implements Cache.
func (c *FIFO) Resident(p PageID) bool { return c.list.Contains(p) }

// Reference implements Cache.
func (c *FIFO) Reference(p PageID) bool {
	if c.list.Contains(p) {
		return true // hits do not reorder a FIFO queue
	}
	if c.list.Len() >= c.capacity {
		c.list.PopBack()
	}
	c.list.PushFront(p)
	return false
}

// Reset implements Cache.
func (c *FIFO) Reset() { c.list.Clear() }
