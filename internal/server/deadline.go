package server

import (
	"context"
	"sync"
	"time"
)

// deadlineCtx is a request's context: a deadline and nothing else. Unlike
// context.WithTimeout it arms no timer up front. Deadline and Err are exact
// — Err compares the clock to the deadline — and that is all a resident hit
// ever asks of it. Done creates its channel and arms one timer only when
// somebody actually selects on it (the pool's coalesced wait, a write-back
// wait, retry backoff), so the common request costs one small allocation
// and no timer.
//
// Err may therefore report DeadlineExceeded a moment before Done's channel
// closes (timer latency); the converse — a closed channel with a nil Err —
// cannot happen, which is the direction callers rely on.
type deadlineCtx struct {
	deadline time.Time

	mu    sync.Mutex
	done  chan struct{}
	timer *time.Timer
}

func newDeadlineCtx(budget time.Duration) *deadlineCtx {
	return &deadlineCtx{deadline: time.Now().Add(budget)}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Value(any) any { return nil }

func (c *deadlineCtx) Err() error {
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
		if d := time.Until(c.deadline); d > 0 {
			c.timer = time.AfterFunc(d, func() { close(done) })
		} else {
			close(done)
		}
	}
	return c.done
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
