package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the distributed-tracing half of the observability kernel:
// a trace context that rides the wire protocol and context.Context, and a
// lock-free per-node span recorder in the spirit of the metrics kernel —
// fixed memory, no locks on the record path, and ~zero cost when a
// request is not sampled (guarded by TestSpanOverheadGuard next to
// TestObsOverheadGuard). DESIGN.md §17 describes the span model.

// TraceContext identifies one logical request across layers and nodes:
// an 8-byte trace id shared by every span of the request, the span id of
// the current enclosing operation (the parent for anything started
// beneath it), and whether the request was sampled. The zero value means
// "no trace".
//
// A fourth field is node-local: the recorder the node that adopted the
// trace (SpanRecorder.Adopt) records its spans into. It never goes on the
// wire, so a decoded context records nothing until its node adopts it.
// Every span started beneath an adopted context inherits the recorder;
// no layer holds one of its own.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
	rec     *SpanRecorder
}

// traceKey is the context.Context key for a TraceContext. An unexported
// zero-size type keeps the key collision-free without allocating.
type traceKey struct{}

// ContextWithTrace attaches tc to ctx. Unsampled contexts are not
// attached at all: the unsampled hot path then pays exactly one nil-map
// ctx.Value miss at each probe site instead of carrying a live value.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Sampled {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceFrom extracts the trace context from ctx; the zero value when none
// is attached.
func TraceFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(traceKey{}).(TraceContext)
	return tc
}

// SpanKind names what a span measured. The set is closed on purpose: each
// kind corresponds to one instrumented seam of the stack, so a waterfall
// reads the same on every node.
type SpanKind uint8

const (
	SpanRequest        SpanKind = iota // whole server-side request (annot = wire op)
	SpanQueueWait                      // wait for an execution slot, request read to slot acquired
	SpanPoolFetch                      // buffer-pool fetch, hit or miss (annot = page id)
	SpanPoolMiss                       // the miss protocol: frame obtention + disk read (annot = page id)
	SpanPoolCoalesce                   // parked on another fetch's in-flight read (annot = page id)
	SpanDiskRead                       // storage backend read (annot = page id)
	SpanDiskWrite                      // storage backend write (annot = page id)
	SpanWALAppend                      // WAL record append, latch held (annot = page id)
	SpanWALFsync                       // WAL group-commit fsync wait (annot = page id)
	SpanBreakerReject                  // operation refused by an open circuit breaker (annot = page id)
	SpanEvict                          // page evicted to make room for a sampled miss (annot = victim page id)
	SpanMoved                          // request bounced with a MOVED redirect (annot = wire op)
	SpanRebalancePhase                 // one phase of the rebalance coordinator (annot = phase index)
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	SpanRequest:        "request",
	SpanQueueWait:      "queue_wait",
	SpanPoolFetch:      "pool_fetch",
	SpanPoolMiss:       "pool_miss",
	SpanPoolCoalesce:   "pool_coalesce",
	SpanDiskRead:       "disk_read",
	SpanDiskWrite:      "disk_write",
	SpanWALAppend:      "wal_append",
	SpanWALFsync:       "wal_fsync",
	SpanBreakerReject:  "breaker_reject",
	SpanEvict:          "evict",
	SpanMoved:          "moved",
	SpanRebalancePhase: "rebalance_phase",
}

// String returns the kind's wire name.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind by name, keeping /spans output and the
// stitcher independent of the constants' numeric order.
func (k SpanKind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(spanKindNames) {
		return nil, fmt.Errorf("obs: unknown span kind %d", uint8(k))
	}
	return json.Marshal(spanKindNames[k])
}

// UnmarshalJSON decodes a kind name.
func (k *SpanKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range spanKindNames {
		if name == s {
			*k = SpanKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown span kind %q", s)
}

// Hex64 is a 64-bit id rendered as 16 hex digits in JSON. Raw uint64s
// would be mangled by float64-based JSON consumers (and the assembler's
// round-trip); fixed-width hex also makes ids greppable across node
// dumps.
type Hex64 uint64

// MarshalJSON implements json.Marshaler.
func (h Hex64) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", h.String())), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Hex64) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseHex64(s)
	if err != nil {
		return err
	}
	*h = v
	return nil
}

// String renders the id as 16 lowercase hex digits.
func (h Hex64) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// ParseHex64 parses a 16-digit hex id (the Hex64/trace-id rendering).
func ParseHex64(s string) (Hex64, error) {
	var v uint64
	if len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("obs: bad hex64 %q", s)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("obs: bad hex64 %q", s)
		}
		v = v<<4 | d
	}
	return Hex64(v), nil
}

// SpanRecord is one finished span as stored in the ring and served over
// /spans. Node is stamped at dump time (the recorder belongs to one node;
// storing it per record would waste ring memory).
type SpanRecord struct {
	Trace  Hex64    `json:"trace"`
	Span   Hex64    `json:"span"`
	Parent Hex64    `json:"parent,omitempty"`
	Kind   SpanKind `json:"kind"`
	Start  int64    `json:"start_ns"` // unix nanoseconds: the recorder's base plus a monotonic offset
	Dur    int64    `json:"dur_ns"`
	Annot  int64    `json:"annot,omitempty"` // kind-specific detail: page id, op, attempt, phase
	Node   string   `json:"node,omitempty"`
}

// spanSlot is one seqlock-guarded ring entry. Writers bump seq to odd,
// store the fields, bump back to even; snapshotters skip odd slots and
// re-check seq after reading, so a torn record is discarded rather than
// served. Every field is individually atomic — the seqlock provides the
// logical consistency, the atomics keep the unsynchronised overlap clean
// under the race detector with no lock and no allocation on the record
// path.
type spanSlot struct {
	seq    atomic.Uint64
	trace  atomic.Uint64
	span   atomic.Uint64
	parent atomic.Uint64
	kind   atomic.Uint64
	start  atomic.Int64
	dur    atomic.Int64
	annot  atomic.Int64
}

// SpanRecorder is the per-node span ring: fixed capacity, overwriting
// oldest-first, no locks anywhere on the record path. Spans reach it only
// through a TraceContext it adopted. Start/Finish beneath a context no
// node adopted are two branches and return immediately — that is the cost
// the whole request fleet pays when tracing is off.
type SpanRecorder struct {
	node   string
	slots  []spanSlot
	cursor atomic.Uint64
	ids    atomic.Uint64
	salt   uint64
	// base is the one clock reading the recorder stamps from: a span's
	// start is baseWall plus its monotonic offset from base, so a
	// wall-clock step under a live recorder moves no start against the
	// monotonic durations and cannot unnest a child from its parent.
	base     time.Time
	baseWall int64
}

// NewSpanRecorder returns a recorder of the given capacity (minimum 1)
// for the named node. The node name salts generated ids so two nodes
// booted at the same instant never mint colliding span ids.
func NewSpanRecorder(node string, capacity int) *SpanRecorder {
	if capacity < 1 {
		capacity = 1
	}
	salt := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(node); i++ {
		salt = splitmix64(salt ^ uint64(node[i]))
	}
	base := time.Now()
	r := &SpanRecorder{
		node:     node,
		slots:    make([]spanSlot, capacity),
		salt:     salt,
		base:     base,
		baseWall: base.UnixNano(),
	}
	r.ids.Store(salt)
	return r
}

// stamp is t as unix nanoseconds on the recorder's clock: its base's wall
// reading plus t's monotonic offset from the base (a t without a monotonic
// reading falls back to its wall clock).
func (r *SpanRecorder) stamp(t time.Time) int64 { return r.baseWall + int64(t.Sub(r.base)) }

// splitmix64 is the SplitMix64 finaliser: a cheap bijective mixer whose
// outputs over sequential inputs are indistinguishable from random draws
// for id purposes.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Node returns the recorder's node name.
func (r *SpanRecorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// NewTraceID mints a fresh non-zero id. Ids are node-salted splitmix64
// draws, so concurrent nodes and processes do not collide in practice.
// Span ids come from the same draw.
func (r *SpanRecorder) NewTraceID() uint64 { return r.newID() }

func (r *SpanRecorder) newID() uint64 {
	for {
		if id := splitmix64(r.ids.Add(1)); id != 0 {
			return id
		}
	}
}

// Adopt returns tc recording into r: the one place a node chooses where
// the spans of a sampled trace go. An unsampled tc comes back unchanged,
// recording nothing, as does any tc a nil r adopts.
func (r *SpanRecorder) Adopt(tc TraceContext) TraceContext {
	if tc.Sampled {
		tc.rec = r
	}
	return tc
}

// Emit records a finished span beneath tc and returns the span's own
// context, for children emitted beneath it. It is the retrospective path —
// tail-sampled requests whose spans are reconstructed after the fact,
// and point events with no duration (breaker rejections, MOVED bounces,
// evictions). A tc no node adopted records nothing and comes back as is.
func (tc TraceContext) Emit(kind SpanKind, start time.Time, dur time.Duration, annot int64) TraceContext {
	r := tc.rec
	if r == nil || tc.TraceID == 0 {
		return tc
	}
	span := r.newID()
	r.write(SpanRecord{
		Trace:  Hex64(tc.TraceID),
		Span:   Hex64(span),
		Parent: Hex64(tc.SpanID),
		Kind:   kind,
		Start:  r.stamp(start),
		Dur:    int64(dur),
		Annot:  annot,
	})
	tc.SpanID = span
	return tc
}

func (r *SpanRecorder) write(rec SpanRecord) {
	slot := &r.slots[(r.cursor.Add(1)-1)%uint64(len(r.slots))]
	slot.seq.Add(1) // odd: writing
	slot.trace.Store(uint64(rec.Trace))
	slot.span.Store(uint64(rec.Span))
	slot.parent.Store(uint64(rec.Parent))
	slot.kind.Store(uint64(rec.Kind))
	slot.start.Store(rec.Start)
	slot.dur.Store(rec.Dur)
	slot.annot.Store(rec.Annot)
	slot.seq.Add(1) // even: published
}

// Span is an in-flight span token. The zero value (from a context no node
// adopted) is inert: Finish on it returns immediately. It is a value,
// not a pointer, so starting a span never allocates.
type Span struct {
	r      *SpanRecorder
	trace  uint64
	id     uint64
	parent uint64
	kind   SpanKind
	start  time.Time
}

// Start begins a span beneath tc. When no node adopted tc (unsampled, or
// tracing off) it returns the inert zero Span without reading the clock —
// this early return is the entire disabled-tracing cost on the hot path.
// (TestSpanOverheadGuard holds it to the ceiling.)
func (tc TraceContext) Start(kind SpanKind) Span {
	if tc.rec == nil {
		return Span{}
	}
	return tc.startSampled(kind)
}

// StartAt is Start with an explicit begin time, for spans whose interval
// opened before the sampling decision (queue wait measured from enqueue).
func (tc TraceContext) StartAt(kind SpanKind, start time.Time) Span {
	if tc.rec == nil {
		return Span{}
	}
	return tc.startAt(kind, start)
}

// startSampled is Start's sampled branch, a function of its own so Start
// stays within the inliner's budget.
func (tc TraceContext) startSampled(kind SpanKind) Span { return tc.startAt(kind, time.Now()) }

func (tc TraceContext) startAt(kind SpanKind, start time.Time) Span {
	return Span{
		r:      tc.rec,
		trace:  tc.TraceID,
		id:     tc.rec.newID(),
		parent: tc.SpanID,
		kind:   kind,
		start:  start,
	}
}

// ID returns the span's id (0 for the inert zero Span), for threading as
// the parent of child spans.
func (s Span) ID() uint64 { return s.id }

// Context returns a trace context whose SpanID is this span, recording into
// the span's recorder, so children started beneath it nest correctly.
func (s Span) Context() TraceContext {
	return TraceContext{TraceID: s.trace, SpanID: s.id, Sampled: s.r != nil, rec: s.r}
}

// Finish records the span with the given annotation. Inert spans return
// immediately (the recording branch is split out for inlinability, as
// with Start).
func (s Span) Finish(annot int64) {
	if s.r == nil {
		return
	}
	s.finish(annot)
}

func (s Span) finish(annot int64) {
	s.r.write(SpanRecord{
		Trace:  Hex64(s.trace),
		Span:   Hex64(s.id),
		Parent: Hex64(s.parent),
		Kind:   s.kind,
		Start:  s.r.stamp(s.start),
		Dur:    int64(time.Since(s.start)),
		Annot:  annot,
	})
}

// Snapshot returns the retained spans, oldest first, each stamped with
// the recorder's node name. Slots mid-write (odd seq, or seq changed
// under the copy) are skipped: the recorder never blocks a writer to
// satisfy a reader.
func (r *SpanRecorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	n := uint64(len(r.slots))
	cur := r.cursor.Load()
	start := uint64(0)
	if cur > n {
		start = cur - n
	}
	out := make([]SpanRecord, 0, n)
	for i := start; i < cur; i++ {
		slot := &r.slots[i%n]
		s1 := slot.seq.Load()
		if s1%2 != 0 {
			continue
		}
		rec := SpanRecord{
			Trace:  Hex64(slot.trace.Load()),
			Span:   Hex64(slot.span.Load()),
			Parent: Hex64(slot.parent.Load()),
			Kind:   SpanKind(slot.kind.Load()),
			Start:  slot.start.Load(),
			Dur:    slot.dur.Load(),
			Annot:  slot.annot.Load(),
			Node:   r.node,
		}
		if slot.seq.Load() != s1 {
			continue
		}
		if rec.Trace == 0 {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// TraceSpans returns the retained spans of one trace, oldest first.
func (r *SpanRecorder) TraceSpans(trace uint64) []SpanRecord {
	all := r.Snapshot()
	out := all[:0]
	for _, rec := range all {
		if rec.Trace == Hex64(trace) {
			out = append(out, rec)
		}
	}
	return out
}
