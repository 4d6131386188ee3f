package storage

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
)

// Metrics are a backend's optional latency instruments: wall-clock Read and
// Write time — inclusive of latch waits, injected delay, and (on the file
// backend) WAL group commit, which is the point: the histogram shows what
// callers actually experienced, split by stripe so one slow or
// breaker-tripped device region stands out from the rest. Each slice must
// be nil or hold NumStripes histograms.
type Metrics struct {
	ReadLatency  []*obs.Histogram
	WriteLatency []*obs.Histogram
}

// Instrumented is a Backend wrapper recording per-stripe read/write latency
// histograms, and — when a span recorder is attached — disk_read /
// disk_write spans for operations running under a sampled trace context.
// Faulted operations are recorded too (stack it outside WithFaults): an
// error return still occupied the caller for that long.
type Instrumented struct {
	Backend // the wrapped backend; every method but Read and Write is its own
	m       Metrics
	spans   *obs.SpanRecorder
}

// WithMetrics wraps inner with latency instrumentation. A nil histogram
// slice disables that side's timing entirely.
func WithMetrics(inner Backend, m Metrics) *Instrumented {
	return &Instrumented{Backend: inner, m: m}
}

// WithSpans arms the wrapper's span recording: sampled reads and writes
// leave disk_read / disk_write spans (annot = page id) in rec. Returns
// the receiver for chaining.
func (in *Instrumented) WithSpans(rec *obs.SpanRecorder) *Instrumented {
	in.spans = rec
	return in
}

// Inner returns the wrapped backend.
func (in *Instrumented) Inner() Backend { return in.Backend }

// Read implements Backend.
func (in *Instrumented) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if in.m.ReadLatency == nil && in.spans == nil {
		return in.Backend.Read(ctx, p, buf)
	}
	span := in.spans.Start(obs.TraceFrom(ctx), obs.SpanDiskRead)
	start := time.Now()
	err := in.Backend.Read(ctx, p, buf)
	if in.m.ReadLatency != nil {
		in.m.ReadLatency[in.StripeOf(p)].ObserveSince(start)
	}
	span.Finish(int64(p))
	return err
}

// Write implements Backend.
func (in *Instrumented) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if in.m.WriteLatency == nil && in.spans == nil {
		return in.Backend.Write(ctx, p, buf)
	}
	span := in.spans.Start(obs.TraceFrom(ctx), obs.SpanDiskWrite)
	start := time.Now()
	err := in.Backend.Write(ctx, p, buf)
	if in.m.WriteLatency != nil {
		in.m.WriteLatency[in.StripeOf(p)].ObserveSince(start)
	}
	span.Finish(int64(p))
	return err
}
