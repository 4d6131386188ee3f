package policy

// Clock is the second-chance (CLOCK) approximation of LRU: frames form a
// ring; a hand sweeps the ring clearing reference bits and evicts the first
// frame whose bit is already clear. Pages are admitted with a clear
// reference bit — a page must be re-referenced while resident to earn its
// second chance (the variant that best approximates LRU and composes with
// the paper's early-page-replacement argument: a once-referenced page is
// cheap to drop).
type Clock struct {
	capacity int
	frames   []clockFrame
	index    map[PageID]int
	hand     int
	used     int
}

type clockFrame struct {
	page PageID
	ref  bool
	live bool
}

// NewClock returns a CLOCK cache with the given frame count.
func NewClock(capacity int) *Clock {
	c := &Clock{capacity: validateCapacity(capacity)}
	c.Reset()
	return c
}

// Name implements Cache.
func (c *Clock) Name() string { return "CLOCK" }

// Capacity implements Cache.
func (c *Clock) Capacity() int { return c.capacity }

// Len implements Cache.
func (c *Clock) Len() int { return c.used }

// Resident implements Cache.
func (c *Clock) Resident(p PageID) bool {
	_, ok := c.index[p]
	return ok
}

// Reset implements Cache.
func (c *Clock) Reset() {
	c.frames = make([]clockFrame, c.capacity)
	c.index = make(map[PageID]int, c.capacity)
	c.hand = 0
	c.used = 0
}

// Reference implements Cache.
func (c *Clock) Reference(p PageID) bool {
	if i, ok := c.index[p]; ok {
		c.frames[i].ref = true
		return true
	}
	slot := c.findSlot()
	f := &c.frames[slot]
	if f.live {
		delete(c.index, f.page)
	} else {
		c.used++
	}
	f.page, f.ref, f.live = p, false, true
	c.index[p] = slot
	return false
}

// findSlot returns an empty frame if one exists, otherwise advances the
// hand until it finds a frame with a clear reference bit.
func (c *Clock) findSlot() int {
	if c.used < c.capacity {
		for i := range c.frames {
			if !c.frames[i].live {
				return i
			}
		}
	}
	for {
		f := &c.frames[c.hand]
		slot := c.hand
		c.hand = (c.hand + 1) % c.capacity
		if f.ref {
			f.ref = false
			continue
		}
		return slot
	}
}
