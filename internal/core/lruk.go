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
// LRUK is a Replacer plus a frame count: a reference is the pool's
// RecordAccess with the eviction a full pool needs placed between the miss
// and the admission, so the simulator runs the buffer pool's transitions.
//
// LRUK implements policy.Cache. It is not safe for concurrent use; see
// SyncReplacer for the concurrent form of the engine.
type LRUK struct {
	capacity int
	k        int
	resident int
	r        *Replacer
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
	return &LRUK{capacity: capacity, k: k, r: NewReplacer(k, opts)}
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
func (c *LRUK) Resident(p policy.PageID) bool { return c.r.holds(p) }

// Reset implements policy.Cache.
func (c *LRUK) Reset() {
	c.r.reset()
	c.resident = 0
}

// Reference implements policy.Cache, processing one element of the
// reference string exactly as Figure 2.1 does: the tick, then a hit, or a
// miss that evicts when the cache is full and admits at the same tick.
func (c *LRUK) Reference(p policy.PageID) bool {
	if c.r.recordHit(p) {
		return true
	}
	if c.resident >= c.capacity {
		c.evict()
	}
	c.r.admit(p)
	c.resident++
	return false
}

// evict drops the Definition 2.2 victim, reporting whether there was one.
func (c *LRUK) evict() bool {
	_, ok := c.r.Evict()
	if ok {
		c.resident--
	}
	return ok
}

// HistorySize returns the number of history control blocks currently held
// for resident and non-resident pages together, exposing the §2.1.2
// retained-information footprint.
func (c *LRUK) HistorySize() int { return c.r.PolicyStats().HistoryBlocks }
