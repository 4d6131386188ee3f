package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/policy"
)

// This file implements the storage circuit breaker: per backend stripe, a
// closed/open/half-open state machine over the outcomes of I/O attempts.
// Sustained failures on a stripe open its circuit, after which reads and
// writes touching that stripe fail fast with ErrUnavailable instead of
// queueing behind a device region that is not answering. After a cooldown
// the circuit admits one probe at a time (half-open); enough consecutive
// probe successes close it again.
//
// The breaker is packaged as a Backend wrapper (WithBreaker) so both the
// simulator and the durable file store get the same protection; the buffer
// pool installs it over whatever backend it is given.

// ErrUnavailable reports an operation refused locally because the circuit
// breaker for its stripe is open. No backend attempt was made: the caller
// can retry after the breaker's cooldown, serve from memory, or surface
// the unavailability. It is permanent under IsTransient — reissuing the
// identical request before the cooldown cannot change the outcome.
var ErrUnavailable = errors.New("storage: disk unavailable (circuit breaker open)")

// BreakerConfig tunes the storage circuit breaker.
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
// matched by exactly one record call with the attempt's outcome (in the
// half-open state the admission holds the stripe's single probe slot until
// record releases it). A false return means the circuit refused the attempt.
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

// Breaker is a Backend wrapper gating every Read and Write through the
// per-stripe circuit: a refused operation fails fast with ErrUnavailable
// and never reaches the inner backend. Allocate and Flush pass through
// ungated — they are not per-stripe device traffic.
//
// All query methods are safe on a nil *Breaker (disabled: everything
// admitted, nothing counted), so callers can hold one unconditionally.
type Breaker struct {
	Backend // the wrapped backend; every method but Read and Write is its own
	b       *breaker
}

// WithBreaker wraps inner with a circuit breaker sized to its stripe count.
// It returns nil when cfg.Threshold is not positive — callers that keep the
// typed nil may still call Ready/Trips/OpenStripes on it. now supplies the
// clock (tests inject a fake one; production passes time.Now).
func WithBreaker(inner Backend, cfg BreakerConfig, now func() time.Time) *Breaker {
	b := newBreaker(cfg, inner.NumStripes(), now)
	if b == nil {
		return nil
	}
	return &Breaker{Backend: inner, b: b}
}

// Inner returns the wrapped backend.
func (br *Breaker) Inner() Backend { return br.Backend }

// Read implements Backend: one breaker admission, one attempt, one outcome
// record.
func (br *Breaker) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	stripe := br.StripeOf(p)
	if !br.b.allow(stripe) {
		return fmt.Errorf("read page %d: %w", p, ErrUnavailable)
	}
	err := br.Backend.Read(ctx, p, buf)
	br.b.record(stripe, err == nil)
	return err
}

// Write implements Backend, mirroring Read.
func (br *Breaker) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	stripe := br.StripeOf(p)
	if !br.b.allow(stripe) {
		return fmt.Errorf("write page %d: %w", p, ErrUnavailable)
	}
	err := br.Backend.Write(ctx, p, buf)
	br.b.record(stripe, err == nil)
	return err
}

// Ready reports whether the stripe's circuit could admit an attempt right
// now, without consuming a probe slot. True on a nil Breaker.
func (br *Breaker) Ready(stripe int) bool {
	if br == nil {
		return true
	}
	return br.b.ready(stripe)
}

// Trips returns the total circuit openings across all stripes (0 on nil).
func (br *Breaker) Trips() uint64 {
	if br == nil {
		return 0
	}
	return br.b.tripCount()
}

// OpenStripes returns how many stripes currently refuse traffic (0 on nil).
func (br *Breaker) OpenStripes() int {
	if br == nil {
		return 0
	}
	return br.b.openStripes()
}
