// Package policy defines the page-replacement contract shared by every
// buffering algorithm in this repository and implements the baseline
// policies the paper compares against (and the wider family it spawned):
// LRU-1, LFU, FIFO, CLOCK, FBR, 2Q, SLRU, LIRS, ARC, W-TinyLFU, the A0
// probability oracle of Definition 3.1, and Belady's offline OPT (B0).
//
// The LRU-K policy itself — the paper's contribution — lives in
// internal/core and implements the same Cache interface.
package policy

import "fmt"

// PageID identifies a disk page. The simulator and all policies treat page
// ids as opaque; workload generators assign them densely from zero.
type PageID int64

// InvalidPage is a sentinel that no workload ever references.
const InvalidPage PageID = -1

// Tick is a logical timestamp counted in page references, the time unit of
// Section 2 of the paper ("we will measure all time intervals in terms of
// counts of successive page accesses").
type Tick int64

// Cache is a fixed-capacity page cache with some replacement policy. One
// Reference call processes one element of the reference string.
//
// Implementations are not safe for concurrent use; the simulator drives a
// cache from a single goroutine, as the paper's trace-driven simulation
// does.
type Cache interface {
	// Name returns a short identifier such as "LRU-2" used in tables.
	Name() string
	// Capacity returns the fixed number of page frames (B in the paper).
	Capacity() int
	// Len returns the number of currently resident pages.
	Len() int
	// Reference processes a reference to page p, admitting it on a miss
	// (evicting a victim when full) and reports whether it was a hit.
	Reference(p PageID) bool
	// Resident reports whether p currently occupies a frame.
	Resident(p PageID) bool
	// Reset restores the cache to its freshly-constructed state.
	Reset()
}

// TraceAware is implemented by offline policies (Belady's B0) that must see
// the whole reference string before it is replayed.
type TraceAware interface {
	// SetTrace installs the full reference string about to be replayed.
	// The policy may retain refs; callers must not mutate it afterwards.
	SetTrace(refs []PageID)
}

// ProbabilityAware is implemented by oracle policies (A0) that consume the
// true reference-probability vector of the workload.
type ProbabilityAware interface {
	// SetProbabilities installs the true probability of reference for every
	// page the workload can emit.
	SetProbabilities(probs map[PageID]float64)
}

func validateCapacity(capacity int) int {
	if capacity <= 0 {
		panic(fmt.Sprintf("policy: capacity must be positive, got %d", capacity))
	}
	return capacity
}
