package bufferpool

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

// This file is the pool's one gate to its backend, diskIO, and the filing
// of its failures. Every disk read and write the pool issues crosses the
// gate exactly once: the circuit breaker admits it, the disk latency
// histogram and a sampled trace's disk span time it, and its outcome goes
// back to the breaker. A failed read fails its fetch; a failed write-back
// quarantines its page until the next sweep or flush writes it.

// diskIO makes the one disk attempt of a logical read or write, op
// (storage.OpRead or storage.OpWrite), of page id: breaker admission, the
// disk_read/disk_write span, the latency histogram, the backend call, the
// breaker outcome. A refused attempt reaches no backend and fails with
// ErrDiskUnavailable. An attempt the caller's own context ended is
// caller-class (DESIGN.md §10): it records no outcome, hands back a
// half-open probe slot it held, and its error is marked (callerEnded) so no
// ledger counts it as a disk failure.
func (p *Pool) diskIO(ctx context.Context, op storage.Op, id policy.PageID, buf []byte) error {
	name, hist, kind := "read", p.metrics.DiskReadLatency, obs.SpanDiskRead
	if op == storage.OpWrite {
		name, hist, kind = "write", p.metrics.DiskWriteLatency, obs.SpanDiskWrite
	}
	if !p.breaker.allow() {
		return fmt.Errorf("%s page %d: %w", name, id, ErrDiskUnavailable)
	}
	span := obs.TraceFrom(ctx).Start(kind)
	var start time.Time
	if hist != nil {
		start = time.Now()
	}
	var err error
	if op == storage.OpWrite {
		err = p.backend.Write(ctx, id, buf)
	} else {
		err = p.backend.Read(ctx, id, buf)
	}
	hist.ObserveSince(start)
	span.Finish(int64(id))
	if endedByCaller(ctx, err) {
		p.breaker.release()
		return callerEnded{err}
	}
	p.breaker.record(err == nil)
	return err
}

// callerEnded wraps the error of an attempt the caller's own context
// ended: the attempt says nothing about the disk.
type callerEnded struct{ error }

func (e callerEnded) Unwrap() error { return e.error }

// endedByCaller reports whether err is ctx's own end: the caller gave up.
func endedByCaller(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
}

func isCallerEnded(err error) bool {
	var c callerEnded
	return errors.As(err, &c)
}

// countFailure files a failed logical read or write in the right ledger: a
// breaker refusal (no disk attempt was made) in ReadsRejected or
// WritesRejected, a caller-class end nowhere, anything else in ReadErrors or
// WriteErrors. It reports whether it filed the failure.
func (p *Pool) countFailure(op storage.Op, err error) bool {
	errs, rejected := &p.readErrors, &p.readsRejected
	if op == storage.OpWrite {
		errs, rejected = &p.writeErrors, &p.writesRejected
	}
	switch {
	case isCallerEnded(err):
		return false
	case errors.Is(err, ErrDiskUnavailable):
		rejected.Add(1)
	default:
		errs.Add(1)
	}
	return true
}

// writeFailed files a failed write-back of the page in frame f and
// quarantines it until a later sweep or flush writes it. A caller-class end
// files nothing: the page stays dirty for the next flush or eviction.
func (p *Pool) writeFailed(f *frame, err error) {
	if p.countFailure(storage.OpWrite, err) {
		p.quarantineAdd(f)
	}
}
