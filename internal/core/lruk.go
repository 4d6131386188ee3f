package core

import (
	"fmt"

	"repro/internal/policy"
)

// Options configures an LRU-K policy instance. The zero value of each field
// selects the documented default.
type Options struct {
	// CorrelatedReferencePeriod is the time-out of §2.1.1, in logical ticks
	// (reference counts): two references to the same page at most this far
	// apart are treated as one correlated burst, and pages inside the
	// period are ineligible for replacement. Zero disables correlation
	// handling, the configuration under which the paper's analysis and
	// Section 4 experiments run ("we will assume for simplicity that the
	// Correlated Reference Period is zero").
	CorrelatedReferencePeriod policy.Tick

	// RetainedInformationPeriod is the history retention horizon of §2.1.2,
	// in logical ticks: history control blocks of non-resident pages are
	// purged once their most recent reference is older than this. Zero
	// retains history indefinitely. The paper's canonical wall-clock value
	// is ~200 seconds, twice the Five Minute Rule interarrival threshold;
	// in tick time a sensible default is several multiples of the buffer
	// capacity (see DefaultRIP).
	RetainedInformationPeriod policy.Tick
}

// DefaultRIP returns a Retained Information Period suited to a cache of the
// given capacity: the paper sizes the RIP as "about twice" the maximum
// interarrival time worth buffering, and with B frames a page referenced
// less often than once per B ticks is not worth keeping, so 2·B·K is the
// tick-time analogue (scaled by K because the period must span K
// references, per the paper's "how far back we need to go to see two
// references" argument).
func DefaultRIP(capacity, k int) policy.Tick {
	return policy.Tick(2 * capacity * k)
}

// LRUK is the LRU-K page cache (Definition 2.2): on a miss with a full
// cache it evicts the resident page with the maximal Backward K-distance
// b_t(p,K), using classical LRU as the subsidiary policy among pages whose
// distance is infinite. LRU-1 is exactly the classical LRU algorithm.
//
// LRUK implements policy.Cache. It is not safe for concurrent use; see
// Cache for the concurrent variant.
type LRUK struct {
	capacity int
	k        int
	table    *histTable
	resident int
}

// NewLRUK returns an LRU-K cache with the paper's analysis configuration:
// Correlated Reference Period zero and unlimited history retention. This is
// the configuration used to reproduce the Section 4 tables.
func NewLRUK(capacity, k int) *LRUK {
	return NewLRUKWithOptions(capacity, k, Options{})
}

// NewLRUKWithOptions returns an LRU-K cache with explicit §2.1 parameters.
func NewLRUKWithOptions(capacity, k int, opts Options) *LRUK {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: capacity must be positive, got %d", capacity))
	}
	if k < 1 {
		panic(fmt.Sprintf("core: K must be at least 1, got %d", k))
	}
	return &LRUK{
		capacity: capacity,
		k:        k,
		table:    newHistTable(k, opts.CorrelatedReferencePeriod, opts.RetainedInformationPeriod),
	}
}

// Name implements policy.Cache; it reports "LRU-1", "LRU-2", ... following
// the paper's taxonomy.
func (c *LRUK) Name() string { return fmt.Sprintf("LRU-%d", c.k) }

// K returns the history depth K.
func (c *LRUK) K() int { return c.k }

// Capacity implements policy.Cache.
func (c *LRUK) Capacity() int { return c.capacity }

// Len implements policy.Cache.
func (c *LRUK) Len() int { return c.resident }

// Resident implements policy.Cache.
func (c *LRUK) Resident(p policy.PageID) bool {
	_, ok := c.table.resident(p)
	return ok
}

// Reset implements policy.Cache.
func (c *LRUK) Reset() {
	c.table.reset()
	c.resident = 0
}

// Reference implements policy.Cache, processing one element of the
// reference string exactly as Figure 2.1 does.
func (c *LRUK) Reference(p policy.PageID) bool {
	now := c.table.tick()
	if h, ok := c.table.resident(p); ok {
		c.table.touch(h, now)
		return true
	}
	if c.resident >= c.capacity {
		c.evict(now)
	}
	c.table.admit(p, now)
	c.resident++
	return false
}

// evict drops the Definition 2.2 victim as of time now, reporting whether
// there was one.
func (c *LRUK) evict(now policy.Tick) bool {
	_, ok := c.table.evict(now)
	if ok {
		c.resident--
	}
	return ok
}

// BackwardKDistance returns b_t(p,K) per Definition 2.1; ok is false when
// the distance is infinite (fewer than K uncorrelated references on
// record, or the history has been purged).
func (c *LRUK) BackwardKDistance(p policy.PageID) (policy.Tick, bool) {
	return c.table.backwardKDistance(p)
}

// HistorySize returns the number of history control blocks currently held
// for resident and non-resident pages together, exposing the §2.1.2
// retained-information footprint.
func (c *LRUK) HistorySize() int { return c.table.historyLen() }

// Clock returns the current logical time (number of references processed).
func (c *LRUK) Clock() policy.Tick { return c.table.clock }

// HistTimes returns a copy of HIST(p) — the times of up to K most recent
// uncorrelated references, most recent first, zeros marking empty slots —
// and LAST(p). ok is false if no history is retained for p. It exists for
// tests and for the analysis package.
func (c *LRUK) HistTimes(p policy.PageID) (times []policy.Tick, last policy.Tick, ok bool) {
	h, found := c.table.pages[p]
	if !found {
		return nil, 0, false
	}
	out := make([]policy.Tick, len(h.times))
	copy(out, h.times)
	return out, h.last, true
}
