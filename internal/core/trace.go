package core

import "repro/internal/policy"

// PolicyTracer receives the one LRU-K decision hit/miss counters cannot
// explain: each victim selection, with the Backward K-distance that
// justified it (Definition 2.2). Correlated-reference collapses (§2.1.1)
// and retention purges (§2.1.2) are bookkeeping, counted exactly by
// PolicyStats and not traced.
//
// The interface is defined here rather than importing the observability
// package so core stays dependency-free; internal/db adapts it onto an
// obs.EvictionTrace ring. Implementations are called under the replacer's
// lock and must be cheap and non-blocking.
type PolicyTracer interface {
	// TraceEvict reports a victim selection at logical time clock. kdist is
	// the victim's Backward K-distance b_t(p,K); infinite means the page had
	// fewer than K uncorrelated references on record and was chosen by the
	// subsidiary LRU rule.
	TraceEvict(page policy.PageID, clock, kdist policy.Tick, infinite bool)
}

// PolicyStats are the cumulative decision counts of one replacer,
// maintained under the policy lock so they cost the reference path two
// predictable increments at most.
type PolicyStats struct {
	// Evictions counts victim selections (abandoned evictions included —
	// the decision was made even if the pool later restored the page).
	Evictions uint64 `json:"evictions"`
	// Collapses counts references absorbed by the Correlated Reference
	// Period (§2.1.1) instead of advancing history.
	Collapses uint64 `json:"collapses"`
	// Purges counts history control blocks dropped by the retention demon
	// (§2.1.2) or the history-budget reclaimer.
	Purges uint64 `json:"purges"`
	// HistoryBlocks is the current number of HIST blocks held, resident
	// plus retained.
	HistoryBlocks int `json:"history_blocks"`
	// Evictable is the current victim-index population. Under the
	// concurrent pool that is every resident page, pinned or not, less the
	// few a running eviction sweep has set aside.
	Evictable int `json:"evictable"`
}
