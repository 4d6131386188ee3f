package bufferpool

import (
	"errors"
	"sync"
	"time"
)

// This file is the pool's disk circuit breaker: per storage stripe
// (storage.StripeIndex over storage.DefaultStripes), a closed/open/half-open
// state machine over the outcomes of I/O attempts. Sustained failures on a
// stripe open its circuit, after which reads and writes touching that
// stripe fail fast with ErrDiskUnavailable instead of queueing behind a
// device region that is not answering. After a cooldown the circuit admits
// one probe at a time (half-open); enough consecutive probe successes close
// it again. The pool's I/O gate (diskIO) is its one caller, so the breaker
// protects the simulator and the durable file store alike.

// ErrDiskUnavailable reports an operation refused locally because the
// circuit breaker for its storage stripe is open. No backend attempt was
// made: the caller can retry after the breaker's cooldown, serve from
// memory, or surface the unavailability. It is permanent under
// storage.IsTransient — reissuing the identical request before the
// cooldown cannot change the outcome.
var ErrDiskUnavailable = errors.New("bufferpool: disk unavailable (circuit breaker open)")

// BreakerConfig tunes the pool's per-stripe disk circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count on one stripe that opens
	// the stripe's circuit. Zero (or negative) disables the breaker.
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

// Breaker states. A stripe starts closed (traffic flows, failures are
// counted), opens at Threshold consecutive failures (traffic is refused),
// turns half-open after Cooldown (one probe in flight at a time), and
// closes again after Probes consecutive probe successes — or re-opens on
// the first probe failure.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the all-stripes state machine; a nil *breaker (disabled)
// admits everything and records nothing.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time
	st  []breakerStripe
}

type breakerStripe struct {
	mu        sync.Mutex
	state     int
	failures  int       // consecutive failures while closed
	successes int       // consecutive probe successes while half-open
	probing   bool      // a half-open probe is in flight
	openedAt  time.Time // when the circuit last opened
	trips     uint64    // times this circuit has opened
}

// newBreaker returns a breaker over the given stripe count, or nil
// (disabled) when cfg.Threshold is not positive. now supplies the clock;
// tests inject a fake one.
func newBreaker(cfg BreakerConfig, stripes int, now func() time.Time) *breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	return &breaker{cfg: cfg.withDefaults(), now: now, st: make([]breakerStripe, stripes)}
}

// allow asks to admit one attempt on the stripe. A true return must be
// matched by exactly one record call with the attempt's outcome, or one
// release call when the attempt ended without one (in the half-open state
// the admission holds the stripe's single probe slot until record or
// release frees it). A false return means the circuit refused the attempt.
func (b *breaker) allow(stripe int) bool {
	if b == nil {
		return true
	}
	s := &b.st[stripe]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(s.openedAt) < b.cfg.Cooldown {
			return false
		}
		s.state = breakerHalfOpen
		s.successes = 0
		s.probing = true
		return true
	default: // breakerHalfOpen
		if s.probing {
			return false
		}
		s.probing = true
		return true
	}
}

// ready reports, without consuming a probe slot, whether allow could admit
// an attempt on the stripe right now. The pool's fetch-miss path uses it to
// fail fast before doing any frame work.
func (b *breaker) ready(stripe int) bool {
	if b == nil {
		return true
	}
	s := &b.st[stripe]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return b.now().Sub(s.openedAt) >= b.cfg.Cooldown
	default:
		return !s.probing
	}
}

// record reports the outcome of an attempt admitted by allow.
func (b *breaker) record(stripe int, success bool) {
	if b == nil {
		return
	}
	s := &b.st[stripe]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case breakerClosed:
		if success {
			s.failures = 0
			return
		}
		s.failures++
		if s.failures >= b.cfg.Threshold {
			s.open(b.now())
		}
	case breakerHalfOpen:
		s.probing = false
		if success {
			s.successes++
			if s.successes >= b.cfg.Probes {
				s.state = breakerClosed
				s.failures = 0
			}
			return
		}
		s.open(b.now())
	case breakerOpen:
		// A straggler admitted before the trip finished late; the cooldown
		// clock stands.
	}
}

// release returns an admission whose attempt ended without a device
// outcome — the caller's own context ended it. A half-open probe slot it
// held is freed with the state unchanged, so the next probe is admissible;
// nothing else moves.
func (b *breaker) release(stripe int) {
	if b == nil {
		return
	}
	s := &b.st[stripe]
	s.mu.Lock()
	if s.state == breakerHalfOpen {
		s.probing = false
	}
	s.mu.Unlock()
}

// open transitions the stripe to the open state. Callers hold s.mu.
func (s *breakerStripe) open(now time.Time) {
	s.state = breakerOpen
	s.openedAt = now
	s.failures = 0
	s.successes = 0
	s.probing = false
	s.trips++
}

// tripCount returns the total number of circuit openings across all stripes.
func (b *breaker) tripCount() uint64 {
	if b == nil {
		return 0
	}
	var n uint64
	for i := range b.st {
		s := &b.st[i]
		s.mu.Lock()
		n += s.trips
		s.mu.Unlock()
	}
	return n
}

// openStripes returns how many stripes are currently in the open state
// (past-cooldown open stripes included: they stay open until a probe runs).
func (b *breaker) openStripes() int {
	if b == nil {
		return 0
	}
	n := 0
	for i := range b.st {
		s := &b.st[i]
		s.mu.Lock()
		if s.state == breakerOpen {
			n++
		}
		s.mu.Unlock()
	}
	return n
}
