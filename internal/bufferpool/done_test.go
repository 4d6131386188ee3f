package bufferpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// The tests in this file pin the lazy done protocol (frame.go): a frame
// entering a transient state has no wait channel, the first waiter makes
// one, and finish wakes whoever came — including a waiter that only loads
// the pointer after finish ran.

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestFrameDoneProtocol drives waitCh and finish directly: no waiter means
// no channel; waiters before finish share one channel that finish closes;
// a waiter after finish gets the closed sentinel.
func TestFrameDoneProtocol(t *testing.T) {
	var f frame

	// No waiter: finish has nothing to close and leaves the sentinel.
	f.done.Store(nil)
	f.finish()
	if f.done.Load() != closedDone {
		t.Fatal("finish without a waiter did not publish the closed sentinel")
	}

	// Waiters before finish share the channel the first one made.
	f.done.Store(nil)
	first := f.waitCh()
	if f.waitCh() != first {
		t.Fatal("a second waiter made its own channel")
	}
	if isClosed(first) {
		t.Fatal("the wait channel is closed before finish")
	}
	f.finish()
	if !isClosed(first) {
		t.Fatal("finish did not close the waiters' channel")
	}

	// A waiter arriving after finish sees the closed sentinel.
	if late := f.waitCh(); late != *closedDone || !isClosed(late) {
		t.Fatal("a waiter after finish did not get the closed sentinel")
	}
}

// TestWriteBackWaitersWake parks a dirty victim's write-back, puts a fetch
// on it (pinEntry's frameWriting arm) and lets the write succeed or fail.
// The waiter made the frame's channel, and it must wake either way, then
// read the page's own bytes (reloaded, or still resident after the failed
// write).
func TestWriteBackWaitersWake(t *testing.T) {
	for _, fail := range []bool{false, true} {
		d, arm, entered, gate := gatedDisk()
		ids := allocPages(t, d, 3)
		victim, filler, other := ids[0], ids[1], ids[2]
		p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
		pg, err := p.FetchCtx(context.Background(), victim)
		if err != nil {
			t.Fatal(err)
		}
		copy(pg.Data()[8:], "fresh")
		pg.Unpin(true) // dirty; the oldest reference, so the first victim
		touch(t, p, filler, false)
		if fail {
			d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Count: 1}))
		}
		arm.Store(true) // parks the next I/O: the eviction's write-back

		evicted := make(chan error, 1)
		go func() {
			pg, err := p.FetchCtx(context.Background(), other) // evicts victim; its write-back parks
			if err == nil {
				pg.Unpin(false)
			}
			evicted <- err
		}()
		<-entered
		arm.Store(false) // a faulted write parks too: the simulator charges it
		f := p.frameFor(victim)
		if f == nil || f.state.Load() != frameWriting || f.done.Load() != nil {
			t.Fatalf("fail=%v: victim not in frameWriting with no channel yet", fail)
		}

		woke := make(chan error, 1)
		go func() {
			pg, err := p.FetchCtx(context.Background(), victim)
			if err != nil {
				woke <- err
				return
			}
			if string(pg.Data()[8:13]) != "fresh" {
				err = errors.New("fetch behind a write-back read stale bytes")
			}
			pg.Unpin(false)
			woke <- err
		}()
		for f.done.Load() == nil { // the waiter made the channel and parks on it
			time.Sleep(50 * time.Microsecond)
		}
		close(gate)
		if err := <-evicted; err != nil {
			t.Fatalf("fail=%v: evicting fetch: %v", fail, err)
		}
		select {
		case err := <-woke:
			if err != nil {
				t.Errorf("fail=%v: waiter: %v", fail, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("fail=%v: waiter on the write-back never woke", fail)
		}
		checkFrameInvariant(t, p)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReusedFrameStartsWithoutDone: a frame whose load had a waiter — so
// the waiter's channel was made and closed — is evicted and reloaded for
// another page, and the new load starts with no channel: nothing of the
// old state's waiters carries over.
func TestReusedFrameStartsWithoutDone(t *testing.T) {
	d, arm, entered, gate := gatedDisk()
	ids := allocPages(t, d, 2)
	p := New(d, 1, core.NewSyncReplacer(2, core.Options{}))

	arm.Store(true)
	var wg sync.WaitGroup
	fetch := func() {
		defer wg.Done()
		pg, err := p.FetchCtx(context.Background(), ids[0])
		if err != nil {
			t.Error(err)
			return
		}
		pg.Unpin(false)
	}
	wg.Add(2)
	go fetch() // the loader, parked in its disk read
	<-entered
	go fetch() // a coalesced waiter
	f := p.frameFor(ids[0])
	for f.done.Load() == nil { // only the waiter can make it: the load is parked
		time.Sleep(50 * time.Microsecond)
	}
	made := f.done.Load()
	if made == closedDone {
		t.Fatal("the load finished while parked")
	}
	gate <- struct{}{}
	wg.Wait()
	if f.done.Load() != closedDone || !isClosed(*made) {
		t.Fatal("finish did not close the waiter's channel and publish the sentinel")
	}

	loaded := make(chan error, 1)
	go func() {
		pg, err := p.FetchCtx(context.Background(), ids[1]) // evicts ids[0], reloads the same frame
		if err == nil {
			pg.Unpin(false)
		}
		loaded <- err
	}()
	<-entered
	if g := p.frameFor(ids[1]); g != f {
		t.Fatal("the reload did not reuse the only frame")
	}
	if f.state.Load() != frameLoading || f.done.Load() != nil {
		t.Fatal("a reused frame entered frameLoading with a done channel already set")
	}
	arm.Store(false)
	close(gate)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
}

// TestLazyDoneStress runs goroutines that fetch a few pages through a slow
// disk that sometimes fails reads and writes, over fewer frames than pages:
// loads coalesce, dirty victims are written back while fetches wait on
// them, some loads and write-backs fail, and some waiters give up mid-wait
// (abandonPin). Every fetch must return, and once they have, frame
// accounting is exact and no pin is left.
func TestLazyDoneStress(t *testing.T) {
	const (
		goroutines = 8
		frames     = 3
		pages      = 5
		fetches    = 300
	)
	var delays atomic.Uint64
	d := newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		time.Sleep(time.Duration(20+delays.Add(37)%150) * time.Microsecond)
	}})
	ids := allocPages(t, d, pages)
	d.SetPlan(storagetest.NewPlan(7,
		storagetest.Rule{Op: storage.OpRead, Probability: 0.15},
		storagetest.Rule{Op: storage.OpWrite, Probability: 0.15}))
	p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))

	// fetch gives one fetch in four a deadline of at most 200 µs, short
	// enough to expire in a coalesced wait or a write-back wait.
	fetch := func(rng *stats.RNG, id policy.PageID) (Page, error) {
		ctx := context.Background()
		if rng.Intn(4) == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(200))*time.Microsecond)
			defer cancel()
		}
		return p.FetchCtx(ctx, id)
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g) + 1)
			for range fetches {
				i := rng.Intn(pages)
				pg, err := fetch(rng, ids[i])
				if err != nil {
					if !errors.Is(err, storagetest.ErrInjectedFault) && !errors.Is(err, context.DeadlineExceeded) &&
						!errors.Is(err, ErrNoFreeFrame) {
						t.Errorf("fetch of page %d: %v", ids[i], err)
					}
					continue
				}
				if got := pg.Data()[0]; got != byte(i+1) {
					t.Errorf("page %d holds stamp %d, want %d", ids[i], got, i+1)
				}
				pg.Unpin(rng.Intn(2) == 0)
			}
		}()
	}
	wg.Wait() // every waiter woke: a lost wake-up hangs here

	checkFrameInvariant(t, p)
	for i := range p.frames {
		if n := p.frames[i].pins(); n != 0 {
			t.Errorf("frame %d left with %d pins", i, n)
		}
	}
	s := p.Stats()
	if s.Coalesced == 0 || s.ReadErrors == 0 || s.WriteErrors == 0 {
		t.Errorf("stress did not cover coalesced waits and failed loads and write-backs: %+v", s)
	}
	t.Logf("%d misses, %d coalesced, %d read errors, %d write errors, %d write-backs",
		s.Misses, s.Coalesced, s.ReadErrors, s.WriteErrors, s.WriteBacks)
	d.SetPlan(nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
