package core

import (
	"fmt"

	"repro/internal/policy"
)

// Resize changes the cache capacity, evicting victims immediately when
// shrinking. Growth takes effect on subsequent misses. It panics on a
// non-positive capacity.
func (c *LRUK) Resize(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: capacity must be positive, got %d", capacity))
	}
	c.capacity = capacity
	for c.resident > c.capacity {
		if !c.evict() {
			return
		}
	}
}

// BudgetedLRUK addresses the open issue of the paper's Section 5: "It is
// an open issue how much space we should set aside for history control
// blocks of non-resident pages. ... a better approach would be to turn
// buffer frames into history control blocks dynamically, and vice versa."
//
// BudgetedLRUK manages a fixed total memory budget, measured in page
// frames, shared between buffer frames and retained history control
// blocks: HistPerFrame history blocks cost one frame. As retained history
// grows (a large universe of recurring pages), frames are converted to
// history storage; as the retention demon purges history, frames are
// reclaimed for pages. The policy inherits everything else from LRUK.
type BudgetedLRUK struct {
	*LRUK
	budget       int
	histPerFrame int
	minFrames    int
}

// NewBudgetedLRUK returns a budgeted LRU-K cache. budget is the total
// memory in page frames; histPerFrame says how many history control blocks
// fit in one frame's worth of memory (a HIST block is a few dozen bytes
// against a 4 KByte frame, so ~100 is realistic; must be >= 1). A
// RetainedInformationPeriod should be set in opts, otherwise history—and
// with it the frame tax—only ever grows.
func NewBudgetedLRUK(budget, k, histPerFrame int, opts Options) *BudgetedLRUK {
	if budget < 2 {
		panic(fmt.Sprintf("core: budget must be at least 2 frames, got %d", budget))
	}
	if histPerFrame < 1 {
		panic(fmt.Sprintf("core: histPerFrame must be at least 1, got %d", histPerFrame))
	}
	if opts.RetainedInformationPeriod == 0 {
		opts.RetainedInformationPeriod = DefaultRIP(budget, k)
	}
	b := &BudgetedLRUK{
		LRUK:         NewLRUKWithOptions(budget, k, opts),
		budget:       budget,
		histPerFrame: histPerFrame,
		minFrames:    1,
	}
	return b
}

// Name implements policy.Cache.
func (b *BudgetedLRUK) Name() string {
	return fmt.Sprintf("LRU-%d/budget", b.K())
}

// FrameBudget returns the configured total budget in frames.
func (b *BudgetedLRUK) FrameBudget() int { return b.budget }

// HistoryFrames returns the number of frames' worth of memory the retained
// history currently consumes (rounded up).
func (b *BudgetedLRUK) HistoryFrames() int {
	// Resident pages' history blocks ride along with their frames; only
	// blocks for non-resident pages are a separate cost.
	retained := b.HistorySize() - b.Len()
	if retained < 0 {
		retained = 0
	}
	return (retained + b.histPerFrame - 1) / b.histPerFrame
}

// EffectiveCapacity returns the frame count currently available to pages.
func (b *BudgetedLRUK) EffectiveCapacity() int {
	c := b.budget - b.HistoryFrames()
	if c < b.minFrames {
		c = b.minFrames
	}
	return c
}

// Reference implements policy.Cache, re-balancing the budget around the
// inherited LRU-K reference processing: the history share is capped at
// half the budget (oldest retained blocks are dropped beyond that, a
// budget-driven purge on top of the RIP demon), and the page capacity is
// whatever the history share leaves free.
func (b *BudgetedLRUK) Reference(p policy.PageID) bool {
	for b.HistoryFrames() > b.budget/2 {
		if !b.r.dropOldestRetained() {
			break
		}
	}
	b.LRUK.Resize(b.EffectiveCapacity())
	return b.LRUK.Reference(p)
}

// MemoryFrames reports the current split of the budget, for introspection
// and tests: frames holding pages, frames' worth of history, and slack.
func (b *BudgetedLRUK) MemoryFrames() (pages, history, free int) {
	history = b.HistoryFrames()
	pages = b.Len()
	free = b.budget - history - pages
	if free < 0 {
		free = 0
	}
	return pages, history, free
}
