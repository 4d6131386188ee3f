package obs

import (
	"fmt"
	"sync"
)

// This file implements the eviction trace: a fixed-capacity ring buffer of
// victim selections (and detected corruptions) that answers the question
// hit/miss counters cannot — *why* did LRU-K pick that victim? Each record
// carries the page, the replacer's logical clock, and the victim's Backward
// K-distance at the moment of the decision, so a surprising eviction can be
// audited against Definition 2.2 after the fact. Correlated-reference
// collapses and retention purges are counters only
// (lruk_policy_collapses_total, lruk_policy_purges_total): recorded here
// they outnumbered the evictions and pushed them out of the ring.

// TraceKind classifies one trace record.
type TraceKind uint8

// Trace record kinds.
const (
	// TraceEvict records a victim selection: Page was evicted at Clock
	// with Backward K-distance KDist (KDistInfinite when the page had
	// fewer than K uncorrelated references on record).
	TraceEvict TraceKind = iota + 1
	// TraceCorrupt records a detected page corruption and its fate: KDist
	// carries 1 when the page was repaired in place, 0 when it was
	// quarantined as unrepairable. Clock carries the corruption kind
	// (storage.CorruptKind) — the trace ring stays policy-agnostic, so
	// the record reuses the generic integer fields.
	TraceCorrupt
)

// String names the kind for logs and dumps.
func (k TraceKind) String() string {
	switch k {
	case TraceEvict:
		return "evict"
	case TraceCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// MarshalJSON serialises the kind by name, so a trace dump reads
// "kind":"evict" rather than a bare enum value.
func (k TraceKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the name form produced by MarshalJSON.
func (k *TraceKind) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"evict"`:
		*k = TraceEvict
	case `"corrupt"`:
		*k = TraceCorrupt
	default:
		return fmt.Errorf("obs: unknown trace kind %s", b)
	}
	return nil
}

// KDistInfinite marks an infinite Backward K-distance in a trace record
// (the victim was chosen by the subsidiary LRU rule among ∞-distance
// pages).
const KDistInfinite = int64(-1)

// TraceRecord is one victim selection or corruption fate.
type TraceRecord struct {
	// Seq is the record's global sequence number, monotone from 1; gaps
	// against the oldest retained record tell how much history the ring
	// has dropped.
	Seq  uint64    `json:"seq"`
	Kind TraceKind `json:"kind"`
	// Page is the page the decision concerned.
	Page int64 `json:"page"`
	// Clock is the policy's logical time (reference count) at the
	// decision.
	Clock int64 `json:"clock"`
	// KDist is the Backward K-distance for TraceEvict records
	// (KDistInfinite for ∞); see TraceCorrupt for its other use.
	KDist int64 `json:"kdist"`
}

// EvictionTrace is the concurrent ring buffer of TraceRecords. Recording
// takes one mutex — eviction decisions already serialise on the replacer's
// lock, so the trace adds no new contention edge — and never allocates
// after construction.
type EvictionTrace struct {
	mu   sync.Mutex
	buf  []TraceRecord
	seq  uint64
	next int // ring write position
	full bool
}

// NewEvictionTrace returns a trace retaining the last capacity records
// (minimum 1).
func NewEvictionTrace(capacity int) *EvictionTrace {
	if capacity < 1 {
		capacity = 1
	}
	return &EvictionTrace{buf: make([]TraceRecord, capacity)}
}

// Record appends one decision, assigning its sequence number, and
// overwrites the oldest record once the ring is full. Safe on a nil
// receiver.
func (t *EvictionTrace) Record(rec TraceRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	rec.Seq = t.seq
	t.buf[t.next] = rec
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Snapshot returns the retained records, oldest first.
func (t *EvictionTrace) Snapshot() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []TraceRecord
	if t.full {
		out = make([]TraceRecord, 0, len(t.buf))
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = make([]TraceRecord, t.next)
		copy(out, t.buf[:t.next])
	}
	return out
}
