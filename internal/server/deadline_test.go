package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// newDeadlineCtx returns a context reset to budget, as a connection's
// handler holds it for one request.
func newDeadlineCtx(budget time.Duration) *deadlineCtx {
	c := &deadlineCtx{}
	c.reset(budget)
	return c
}

// TestDeadlineCtxLazy pins the deadline context's contract: Deadline and
// Err are exact with no timer armed; Done arms exactly one timer on first
// use and fires at the deadline; release stops an armed timer.
func TestDeadlineCtxLazy(t *testing.T) {
	leakcheck.Check(t)

	c := newDeadlineCtx(30 * time.Millisecond)
	if d, ok := c.Deadline(); !ok || time.Until(d) > 30*time.Millisecond || time.Until(d) <= 0 {
		t.Fatalf("Deadline = %v, %v", d, ok)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	if c.Value("anything") != nil {
		t.Error("Value must be nil")
	}
	time.Sleep(35 * time.Millisecond)
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline = %v, want DeadlineExceeded", err)
	}
	if c.done != nil || c.timer != nil {
		t.Fatal("Err armed a channel or timer; only Done may")
	}
	// Done on an already expired context is closed at once, timerless.
	select {
	case <-c.Done():
	default:
		t.Fatal("Done on an expired context is not closed")
	}
	if c.timer != nil {
		t.Error("Done armed a timer for a deadline already past")
	}
	c.release()

	// Done before the deadline: one channel, one timer, fires on time.
	c = newDeadlineCtx(20 * time.Millisecond)
	done := c.Done()
	if c.timer == nil {
		t.Fatal("Done armed no timer")
	}
	if again := c.Done(); again != done {
		t.Fatal("second Done returned a different channel")
	}
	select {
	case <-done:
		t.Fatal("Done closed before the deadline")
	default:
	}
	select {
	case <-done:
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err after Done closed = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Done never fired")
	}
	c.release()

	// release stops an armed timer: Done never closes.
	c = newDeadlineCtx(20 * time.Millisecond)
	done = c.Done()
	c.release()
	select {
	case <-done:
		t.Fatal("Done fired after release")
	case <-time.After(60 * time.Millisecond):
	}

	// A derived context (the traced request path wraps it in WithValue)
	// still sees the deadline through the standard library's plumbing.
	c = newDeadlineCtx(10 * time.Millisecond)
	defer c.release()
	wrapped := context.WithValue(c, struct{}{}, 1)
	select {
	case <-wrapped.Done():
		if !errors.Is(wrapped.Err(), context.DeadlineExceeded) {
			t.Fatalf("wrapped Err = %v", wrapped.Err())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wrapped context never expired")
	}
}

// TestDeadlineCtxReuse pins what reusing one context across a
// connection's requests needs: request 1 arms Done with a 5 ms budget and
// is released around the moment its timer fires — before, during or after
// — and request 2 on the same context gets a 1 s budget. Request 1's timer
// may close request 1's channel, never request 2's, and request 2's Err
// stays nil.
func TestDeadlineCtxReuse(t *testing.T) {
	leakcheck.Check(t)
	var c deadlineCtx
	for i := range 12 {
		c.reset(5 * time.Millisecond)
		first := c.Done()
		time.Sleep(time.Duration(3000+i*300) * time.Microsecond) // 3.0–6.3 ms
		c.release()

		c.reset(time.Second)
		second := c.Done()
		if second == first {
			t.Fatal("reset kept the previous request's channel")
		}
		select {
		case <-first: // request 1's timer fired: it may close only its own channel
		case <-time.After(20 * time.Millisecond):
		}
		select {
		case <-second:
			t.Fatalf("iteration %d: request 1's timer closed request 2's channel", i)
		default:
		}
		if err := c.Err(); err != nil {
			t.Fatalf("iteration %d: request 2's Err = %v within its 1 s budget", i, err)
		}
		c.release()
	}
}

// TestDeadlineCtxCancel pins the hard-close's cancellation: Err reports
// Canceled at once, an armed Done channel closes, a Done made after the
// cancel is born closed, a cancel racing the timer closes the channel
// once, and reset starts the next request uncanceled.
func TestDeadlineCtxCancel(t *testing.T) {
	leakcheck.Check(t)
	c := newDeadlineCtx(time.Minute)
	done := c.Done()
	c.cancel()
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after cancel = %v, want Canceled", err)
	}
	select {
	case <-done:
	default:
		t.Fatal("cancel left the armed Done channel open")
	}
	c.cancel() // a second cancel is a no-op
	c.release()

	c.reset(time.Minute)
	if err := c.Err(); err != nil {
		t.Fatalf("Err after reset = %v, want nil", err)
	}
	c.cancel()
	select {
	case <-c.Done():
	default:
		t.Fatal("Done made after cancel is open")
	}
	c.release()

	// The timer firing and a concurrent cancel each try to close one channel.
	for i := range 20 {
		c.reset(time.Duration(i*50) * time.Microsecond)
		done, canceled := c.Done(), make(chan struct{})
		go func() {
			c.cancel()
			close(canceled)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: neither the timer nor cancel closed Done", i)
		}
		<-canceled
		c.release()
	}
}

// TestDeadlineCtxAbandonsCoalescedWait is PR 3's abandon test run with the
// server's context type: a load is frozen mid-disk-read, a second fetch
// coalesces onto it under a deadlineCtx, and its expiry — delivered through
// the lazily armed Done — must abandon the wait promptly with
// DeadlineExceeded while the loader still installs the page, the books
// closing exactly.
func TestDeadlineCtxAbandonsCoalescedWait(t *testing.T) {
	leakcheck.Check(t)
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	d := sim.New(sim.ServiceModel{Delay: func(int64) {
		entered <- struct{}{}
		<-gate
	}})
	id := storagetest.MustAllocate(d)
	p := bufferpool.New(d, 2, core.NewSyncReplacer(2, core.Options{}))

	loaded := make(chan error, 1)
	go func() {
		pg, err := p.FetchCtx(context.Background(), id)
		if err == nil {
			pg.Unpin(false)
		}
		loaded <- err
	}()
	<-entered // the loader is parked inside the disk read

	ctx := newDeadlineCtx(10 * time.Millisecond)
	start := time.Now()
	_, err := p.FetchCtx(ctx, id)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned waiter returned %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("abandoned waiter took %v to return", waited)
	}
	if ctx.timer == nil {
		t.Error("the coalesced wait did not go through Done")
	}
	ctx.release()

	close(gate) // release the loader
	if err := <-loaded; err != nil {
		t.Fatalf("loader failed: %v", err)
	}
	if !p.Resident(id) {
		t.Fatal("loader did not install the page after the waiter abandoned")
	}
	// Loader: one miss. Abandoned waiter: one miss, one coalesced.
	if s := p.Stats(); s.Misses != 2 || s.Coalesced != 1 || s.Hits != 0 {
		t.Errorf("stats after abandon = %+v, want Misses 2, Coalesced 1", s)
	}
	pg, err := p.FetchCtx(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if got := p.Stats().Hits; got != 1 {
		t.Errorf("post-abandon fetch was not a hit (Hits = %d)", got)
	}
}
