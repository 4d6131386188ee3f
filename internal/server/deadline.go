package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineCtx is a request's context: a deadline and nothing else. Unlike
// context.WithTimeout it arms no timer up front. Deadline and Err are exact
// — Err compares the clock to the deadline — and that is all a resident hit
// ever asks of it. Done creates its channel and arms one timer only when
// somebody actually selects on it (the pool's coalesced wait, a write-back
// wait), so the common request allocates nothing and arms no timer.
//
// Err may therefore report DeadlineExceeded a moment before Done's channel
// closes (timer latency); the converse — a closed channel with a nil Err —
// cannot happen, which is the direction callers rely on.
//
// A connection's handler owns one deadlineCtx and reuses it for every
// request on the connection: reset before the request, release after it.
// The reuse rests on one invariant: nothing holds a request's context after
// execute returns. Every layer below runs the request inline on the
// handler's goroutine, derives no cancelable context from it (whose
// propagation goroutine could outlive the request), and keeps no reference
// to ctx once its call returns, so the next reset rewrites fields no one
// else reads. A timer armed by request n and firing after release closes
// request n's channel, which its closure captured, never request n+1's.
//
// One other goroutine reaches the context: Close's hard-close cancels a
// straggler's request (cancel), so reset, like Done, holds mu.
type deadlineCtx struct {
	deadline time.Time
	canceled atomic.Bool

	mu    sync.Mutex
	done  chan struct{}
	timer *time.Timer
}

// reset re-arms the context for its owner's next request: a fresh deadline
// budget from now, no channel, no timer, no cancellation. The owner calls
// it before each request, after the previous request's release.
func (c *deadlineCtx) reset(budget time.Duration) {
	c.mu.Lock()
	c.deadline = time.Now().Add(budget)
	c.done, c.timer = nil, nil
	c.canceled.Store(false)
	c.mu.Unlock()
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Value(any) any { return nil }

func (c *deadlineCtx) Err() error {
	if c.canceled.Load() {
		return context.Canceled
	}
	if time.Now().Before(c.deadline) {
		return nil
	}
	return context.DeadlineExceeded
}

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		done := make(chan struct{})
		c.done = done
		if d := time.Until(c.deadline); d > 0 && !c.canceled.Load() {
			c.timer = time.AfterFunc(d, func() { close(done) })
		} else {
			close(done)
		}
	}
	return c.done
}

// cancel ends the request early: Err reports context.Canceled from now on,
// and the channel Done made, if any, closes. The channel is closed here only
// when a timer armed for it is stopped before firing; a fired timer has
// closed it, and a channel made without a timer was closed at birth.
func (c *deadlineCtx) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.canceled.Swap(true) {
		return
	}
	if c.timer != nil && c.timer.Stop() {
		close(c.done)
	}
}

// release stops the timer if Done armed one. The request's owner calls it
// once the operation has returned and nothing selects on the context any
// more.
func (c *deadlineCtx) release() {
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
}
