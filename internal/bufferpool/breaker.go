package bufferpool

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the pool's disk circuit breaker: one closed/open/half-open
// state machine for the backend, over the outcomes of I/O attempts.
// Sustained failures open the circuit, after which reads and writes fail
// fast with ErrDiskUnavailable instead of queueing behind a disk that is
// not answering. After a cooldown the circuit admits one probe at a time
// (half-open); enough consecutive probe successes close it again. The
// pool's I/O gate (diskIO) is its one caller, so the breaker protects the
// simulator and the durable file store alike.
//
// The closed state is the hot one — every bulk-load page write and every
// miss crosses it — so the state lives in one atomic word: admitting an
// attempt while closed is one load, and so is recording a success that
// ends no failure streak. Every other outcome and transition takes the
// mutex, and only a holder of the mutex changes the word.

// ErrDiskUnavailable reports an operation refused locally because the
// disk's circuit breaker is open. No backend attempt was made: the caller
// can retry after the breaker's cooldown, serve from memory, or surface
// the unavailability. It is permanent under storage.IsTransient —
// reissuing the identical request before the cooldown cannot change the
// outcome.
var ErrDiskUnavailable = errors.New("bufferpool: disk unavailable (circuit breaker open)")

// BreakerConfig tunes the pool's disk circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the circuit.
	// Zero (or negative) disables the breaker.
	Threshold int
	// Cooldown is how long an open circuit rejects traffic before admitting
	// a half-open probe. Zero selects 50ms.
	Cooldown time.Duration
	// Probes is the number of consecutive successful half-open probes that
	// close the circuit. Zero selects 2.
	Probes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = 50 * time.Millisecond
	}
	if c.Probes <= 0 {
		c.Probes = 2
	}
	return c
}

// Breaker states. The circuit starts closed (traffic flows, failures are
// counted), opens at Threshold consecutive failures (traffic is refused),
// turns half-open after Cooldown (one probe in flight at a time), and
// closes again after Probes consecutive probe successes — or re-opens on
// the first probe failure.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// The state word: the state in the low bits, and above them the closed
// state's failure streak (zero in the other states).
const (
	stateMask = 3
	streakOne = 4
)

// breaker is the state machine; a nil *breaker (disabled) admits
// everything and records nothing.
type breaker struct {
	cfg   BreakerConfig
	now   func() time.Time
	word  atomic.Uint64 // state | streak·streakOne; written only under mu
	trips atomic.Uint64 // times the circuit has opened

	mu        sync.Mutex
	successes int       // consecutive probe successes while half-open
	probing   bool      // a half-open probe is in flight
	openedAt  time.Time // when the circuit last opened
}

// newBreaker returns a breaker, or nil (disabled) when cfg.Threshold is not
// positive. now supplies the clock; tests inject a fake one.
func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	return &breaker{cfg: cfg.withDefaults(), now: now}
}

func (b *breaker) closed() bool { return b.word.Load()&stateMask == breakerClosed }

// allow asks to admit one attempt. A true return must be matched by exactly
// one record call with the attempt's outcome, or one release call when the
// attempt ended without one (in the half-open state the admission holds
// the single probe slot until record or release frees it). A false return
// means the circuit refused the attempt.
func (b *breaker) allow() bool {
	if b == nil || b.closed() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.word.Load() & stateMask {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.word.Store(breakerHalfOpen)
		b.successes = 0
		b.probing = true
		return true
	default: // breakerHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// ready reports, without consuming a probe slot, whether allow could admit
// an attempt right now. The pool's fetch-miss path uses it to fail fast
// before doing any frame work.
func (b *breaker) ready() bool {
	if b == nil || b.closed() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.word.Load() & stateMask {
	case breakerClosed:
		return true
	case breakerOpen:
		return b.now().Sub(b.openedAt) >= b.cfg.Cooldown
	default:
		return !b.probing
	}
}

// record reports the outcome of an attempt admitted by allow.
func (b *breaker) record(success bool) {
	if b == nil || (success && b.word.Load() == breakerClosed) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.word.Load()
	switch w & stateMask {
	case breakerClosed:
		switch {
		case success:
			b.word.Store(breakerClosed)
		case w/streakOne+1 < uint64(b.cfg.Threshold):
			b.word.Store(w + streakOne)
		default:
			b.open()
		}
	case breakerHalfOpen:
		b.probing = false
		if !success {
			b.open()
			return
		}
		b.successes++
		if b.successes >= b.cfg.Probes {
			b.word.Store(breakerClosed)
		}
	case breakerOpen:
		// A straggler admitted before the trip finished late; the cooldown
		// clock stands.
	}
}

// open trips the circuit and starts its cooldown. Callers hold mu.
func (b *breaker) open() {
	b.word.Store(breakerOpen)
	b.openedAt = b.now()
	b.successes = 0
	b.probing = false
	b.trips.Add(1)
}

// release returns an admission whose attempt ended without a device
// outcome — the caller's own context ended it. A half-open probe slot it
// held is freed with the state unchanged, so the next probe is admissible;
// nothing else moves.
func (b *breaker) release() {
	if b == nil || b.closed() {
		return
	}
	b.mu.Lock()
	if b.word.Load()&stateMask == breakerHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// tripCount returns how many times the circuit has opened.
func (b *breaker) tripCount() uint64 {
	if b == nil {
		return 0
	}
	return b.trips.Load()
}

// isOpen reports whether the circuit is in the open state (past its
// cooldown included: it stays open until a probe runs).
func (b *breaker) isOpen() bool {
	return b != nil && b.word.Load()&stateMask == breakerOpen
}
