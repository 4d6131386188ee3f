package bufferpool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
)

// This file is the pool's one gate to its backend, diskIO, and the retry
// ladder around it. Every disk read and write the pool issues crosses the
// gate once per attempt: the circuit breaker admits it, the disk latency
// histogram and a sampled trace's disk span time it, and its outcome goes
// back to the breaker. The ladder reissues transient failures with capped
// exponential backoff and deterministic seeded jitter; every backoff sleep
// is charged against the caller's context, so a deadline bounds the whole
// ladder rather than each rung. A breaker refusal is permanent under
// storage.IsTransient and ends the ladder immediately.

// RetryConfig tunes transient-fault retry for pool↔storage operations.
type RetryConfig struct {
	// Attempts is the maximum number of disk attempts per logical read or
	// write, the first included. Zero or one disables retry.
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles after
	// each subsequent failure. Zero selects 200µs.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero selects 5ms.
	MaxDelay time.Duration
	// Seed seeds the deterministic jitter stream: a single-threaded
	// operation sequence backs off identically on every run; under
	// concurrency the jitter stream is still the seeded one, assigned to
	// retries in arrival order.
	Seed uint64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts < 1 {
		c.Attempts = 1
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 200 * time.Microsecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5 * time.Millisecond
	}
	if c.MaxDelay < c.BaseDelay {
		c.MaxDelay = c.BaseDelay
	}
	return c
}

// retrier computes jittered backoff delays from one seeded stream.
type retrier struct {
	cfg RetryConfig
	mu  sync.Mutex
	rng *stats.RNG
}

func newRetrier(cfg RetryConfig) *retrier {
	cfg = cfg.withDefaults()
	return &retrier{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
}

// backoff returns the delay after the attempt-th failed attempt (1-based):
// the full delay d = min(MaxDelay, BaseDelay·2^(attempt-1)), jittered
// uniformly into [d/2, d] ("equal jitter") from the seeded stream, so
// coalescing retriers spread out instead of thundering back together.
func (r *retrier) backoff(attempt int) time.Duration {
	d := r.cfg.MaxDelay
	if attempt-1 < 32 { // past 2^32 the shift alone exceeds any sane cap
		if shifted := r.cfg.BaseDelay << (attempt - 1); shifted > 0 && shifted < d {
			d = shifted
		}
	}
	half := d / 2
	r.mu.Lock()
	j := time.Duration(r.rng.Uint64n(uint64(d-half) + 1))
	r.mu.Unlock()
	return half + j
}

// retrySleep parks for the attempt's backoff, charged against ctx: an
// expiring context aborts the sleep (and with it the retry ladder). A
// sampled operation records the sleep as a retry_wait span (annot = the
// failed attempt number), so a waterfall shows where a slow miss sat in
// backoff rather than on the disk.
func (p *Pool) retrySleep(ctx context.Context, attempt int) error {
	var span obs.Span
	if p.spans != nil {
		span = p.spans.Start(obs.TraceFrom(ctx), obs.SpanRetryWait)
	}
	t := time.NewTimer(p.retry.backoff(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		span.Finish(int64(attempt))
		return ctx.Err()
	case <-t.C:
		span.Finish(int64(attempt))
		return nil
	}
}

// diskIO is one attempt of op (storage.OpRead or storage.OpWrite) on page
// id: breaker admission, the disk_read/disk_write span, the latency
// histogram, the backend call, the breaker outcome. A refused attempt
// reaches no backend and fails with ErrDiskUnavailable. An attempt
// the caller's own context ended is caller-class (DESIGN.md §10): it
// records no outcome, hands back a half-open probe slot it held, and its
// error is marked (callerEnded) so no ledger counts it as a disk failure.
func (p *Pool) diskIO(ctx context.Context, op storage.Op, id policy.PageID, buf []byte) error {
	name, hist, kind := "read", p.metrics.DiskReadLatency, obs.SpanDiskRead
	if op == storage.OpWrite {
		name, hist, kind = "write", p.metrics.DiskWriteLatency, obs.SpanDiskWrite
	}
	if !p.breaker.allow() {
		return fmt.Errorf("%s page %d: %w", name, id, ErrDiskUnavailable)
	}
	var span obs.Span
	if p.spans != nil {
		span = p.spans.Start(obs.TraceFrom(ctx), kind)
	}
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

// diskRetry runs one logical read or write of page id through diskIO and
// the retry ladder. Transient failures are retried up to the configured
// attempts with backoff charged against ctx; permanent errors, breaker
// refusals and caller-class ends return immediately. Each retried attempt
// counts once in ReadRetries or WriteRetries.
func (p *Pool) diskRetry(ctx context.Context, op storage.Op, id policy.PageID, buf []byte) error {
	for attempt := 1; ; attempt++ {
		err := p.diskIO(ctx, op, id, buf)
		if err == nil {
			return nil
		}
		if !storage.IsTransient(err) || attempt >= p.retry.cfg.Attempts {
			return err
		}
		if serr := p.retrySleep(ctx, attempt); serr != nil {
			return fmt.Errorf("%w (retry abandoned: %w)", err, serr)
		}
		if sh := p.shardOf(id); op == storage.OpWrite {
			sh.writeRetries.Add(1)
		} else {
			sh.readRetries.Add(1)
		}
	}
}

// countFailure files a failed logical read or write in the right ledger: a
// breaker refusal (no disk attempt was made) in ReadsRejected or
// WritesRejected, a caller-class end nowhere, anything else in ReadErrors or
// WriteErrors. It reports whether it filed the failure.
func (sh *shard) countFailure(op storage.Op, err error) bool {
	errs, rejected := &sh.readErrors, &sh.readsRejected
	if op == storage.OpWrite {
		errs, rejected = &sh.writeErrors, &sh.writesRejected
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

// writeFailed files a failed write-back of page id and quarantines the
// page until a later sweep or flush writes it. A caller-class end files
// nothing: the page stays dirty for the next flush or eviction.
func (p *Pool) writeFailed(id policy.PageID, err error) {
	if p.shardOf(id).countFailure(storage.OpWrite, err) {
		p.quarantineAdd(id)
	}
}
