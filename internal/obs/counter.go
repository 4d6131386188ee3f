package obs

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
)

// counterCell is one stripe of a Counter, padded to a cache line so
// adjacent stripes never false-share under contention.
type counterCell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a cumulative, monotone counter striped across cache-line-
// padded atomic cells: concurrent Adds land on (probabilistically)
// different stripes, so a hot counter does not serialise its writers on
// one cache line the way a single atomic would. Reads sum the stripes.
//
// All methods are safe on a nil *Counter (no-ops / zero), so instrumented
// code holds optional counter fields without branching on configuration.
type Counter struct {
	cells []counterCell
	mask  uint64
}

// counterStripes picks the stripe count: the next power of two at or above
// GOMAXPROCS, capped so an over-provisioned box does not pay kilobytes per
// counter.
func counterStripes() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 64 {
		s <<= 1
	}
	return s
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter {
	n := counterStripes()
	return &Counter{cells: make([]counterCell, n), mask: uint64(n - 1)}
}

// Add increments the counter by n. The stripe is chosen from the runtime's
// per-thread cheap random stream, so no shared state is touched beyond the
// stripe itself.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.cells[rand.Uint64()&c.mask].n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's total. Under concurrent Adds the sum is a
// linearizable-enough snapshot for monitoring: every completed Add is
// included, in-flight ones may or may not be.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}
