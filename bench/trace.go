package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/storage"
)

// Tracing lives entirely in bench/: spans are recorded around calls into
// each layer's public entry points, and around storage.Backend calls by a
// wrapper handed to db.Config.Backend. Nothing inside internal/ is edited;
// spans inside the program are a later change.

// span is one timed call. Start and End are nanoseconds since the tracer
// was created; Parent is 0 for a request's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Req    uint32 `json:"req"`
}

// tracer holds the traced run's spans in memory and the storage wrapper's
// boundary timings.
type tracer struct {
	epoch time.Time

	// timing arms the storage wrapper; off, it is a pass-through.
	timing atomic.Bool
	// cur is the request the single ladder client is inside, packed
	// req<<32 | root span id; 0 outside a request. Storage calls made while
	// it is set become child spans of that request. It is only set by the
	// one-client ladder, where a request's storage calls cannot interleave
	// with another's.
	cur atomic.Uint64
	// childNs accumulates storage time under the current ladder request.
	childNs atomic.Int64

	mu      sync.Mutex
	spans   []span // preallocated; full means dropped, never grown
	dropped int
	nextID  uint32
	// reads / writes time every Backend.Read / Write while timing is armed.
	reads, writes Hist
	busyNs        int64
}

func newTracer(spanCap int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, spanCap)}
}

// newSpanID allocates a span id (never 0).
func (t *tracer) newSpanID() uint32 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// add appends a finished span.
func (t *tracer) add(name string, start, end time.Time, id, parent, req uint32) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{name, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds(), id, parent, req})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// busy returns the total time spent inside timed backend calls.
func (t *tracer) busy() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busyNs
}

// windowSpan is one client-observed operation of a traced window, kept in
// the client's own preallocated buffer during the timed loop.
type windowSpan struct {
	start, end time.Time
	update     bool
}

// addWindowSpans turns a client's window buffer into root spans, each its
// own request.
func (t *tracer) addWindowSpans(ws []windowSpan) {
	for _, s := range ws {
		name := "client.get"
		if s.update {
			name = "client.update"
		}
		id := t.newSpanID()
		t.add(name, s.start, s.end, id, 0, id)
	}
}

// storageCall records one timed backend call.
func (t *tracer) storageCall(name string, h *Hist, start, end time.Time) {
	d := end.Sub(start).Nanoseconds()
	t.mu.Lock()
	h.Record(d)
	t.busyNs += d
	t.mu.Unlock()
	if cur := t.cur.Load(); cur != 0 {
		t.childNs.Add(d)
		t.add(name, start, end, t.newSpanID(), uint32(cur), uint32(cur>>32))
	}
}

// spanBackend times Read and Write of the backend it wraps; every other
// method passes through.
type spanBackend struct {
	storage.Backend
	t *tracer
}

// Inner lets storage.RepairerFor see through the wrapper.
func (b *spanBackend) Inner() storage.Backend { return b.Backend }

func (b *spanBackend) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if !b.t.timing.Load() {
		return b.Backend.Read(ctx, p, buf)
	}
	start := time.Now()
	err := b.Backend.Read(ctx, p, buf)
	b.t.storageCall("storage.Read", &b.t.reads, start, time.Now())
	return err
}

func (b *spanBackend) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if !b.t.timing.Load() {
		return b.Backend.Write(ctx, p, buf)
	}
	start := time.Now()
	err := b.Backend.Write(ctx, p, buf)
	b.t.storageCall("storage.Write", &b.t.writes, start, time.Now())
	return err
}

// durableSpanBackend keeps the file store's DurableBackend face so db.Open
// still runs in durable mode with the wrapper in place.
type durableSpanBackend struct {
	spanBackend
	durable storage.DurableBackend
}

func (b *durableSpanBackend) Recovery() storage.RecoveryInfo { return b.durable.Recovery() }

// traceFile is what out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Dropped  int                `json:"spans_dropped"`
	Spans    []span             `json:"spans"`
}

// writeTrace dumps the in-memory spans at exit.
func writeTrace(def *workloadDef, seed uint64, t *tracer, metrics map[string]float64) (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join("out", "trace-"+def.Name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	tf := traceFile{Workload: def.Name, Seed: seed, Metrics: metrics, Dropped: t.dropped, Spans: t.spans}
	err = json.NewEncoder(f).Encode(tf)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// checkNesting verifies the trace's structure: every span has a request id,
// ids are unique, and a child lies inside its parent's interval and shares
// its request.
func checkNesting(spans []span) error {
	byID := make(map[uint32]span, len(spans))
	for _, s := range spans {
		if s.Req == 0 {
			return errSpan("span without a request id", s)
		}
		if s.End < s.Start {
			return errSpan("span ends before it starts", s)
		}
		if _, dup := byID[s.ID]; dup {
			return errSpan("duplicate span id", s)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return errSpan("parent span missing", s)
		}
		if p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			return errSpan("child outside its parent", s)
		}
	}
	return nil
}

func errSpan(msg string, s span) error { return fmt.Errorf("bench: %s: %+v", msg, s) }
