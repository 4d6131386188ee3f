package bufferpool

import "context"

// This file owns the pool's lifecycle: Start launches the background
// scrubber (integrity.go) under a cancellable context, Close cancels it,
// waits for it, flushes every dirty page, and fences the pool against
// further use.

// Start launches the background scrubber when Config.ScrubInterval is set;
// otherwise it does nothing. It is a no-op on a pool that is already
// started or closed. A pool runs no other background work: a quarantined
// page is retried by the next eviction sweep that selects it and by every
// flush, started or not.
func (p *Pool) Start() {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	if p.stop != nil || p.closed.Load() || p.scrubInterval <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.stop = cancel
	p.bg.Add(1)
	go p.scrubLoop(ctx)
}

// Close stops the scrubber, flushes every dirty resident page, and fences
// the pool: Fetch, NewPage, AllocatePage, WriteNewPage and FlushAll return
// ErrClosed afterwards, and ScrubSweep examines nothing.
// Close is idempotent — repeated calls return the first call's flush
// result without flushing again.
// In-flight operations that passed the fence complete or fail with
// ErrClosed; Close does not wait for their pins to drop (releaseFrames).
func (p *Pool) Close() error {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	if p.closed.Load() {
		return p.closeErr
	}
	if p.stop != nil {
		p.stop()
		p.bg.Wait()
	}
	// Fence new operations first, then run the final flush through the
	// internal path (the public FlushAll would now refuse us).
	p.closed.Store(true)
	p.closeErr = p.flushAll(context.Background())
	p.releaseFrames()
	return p.closeErr
}
