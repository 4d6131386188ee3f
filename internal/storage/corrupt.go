package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/stats"
)

// This file is the integrity half of the fault model: a typed corruption
// error every backend reports the same way, a Repairer seam for targeted
// read-repair, and WithCorruption — a Backend wrapper (sibling of
// WithFaults) that injects seeded media corruption so the pool's
// detect→repair→quarantine paths can be exercised identically over the
// simulator and the durable file store.
//
// The wrapper models corruption as *taint*: a write may, per the armed
// plan, leave its page (or a misdirected neighbour) marked corrupt. A read
// of a tainted page is refused with ErrCorrupt without touching the inner
// backend — exactly what a self-verifying store does when a trailer check
// fails — and the taint clears the way real corruption does: a fresh
// overwrite of the slot, or a successful RepairPage.

// CorruptKind classifies a detected corruption — informational taxonomy;
// every kind is handled the same way (repair, else quarantine).
type CorruptKind uint8

const (
	// CorruptChecksum is a payload/trailer checksum mismatch: bit rot, a
	// torn write the checker cannot distinguish from it, or any other
	// in-place mutilation of the stored bytes.
	CorruptChecksum CorruptKind = iota + 1
	// CorruptTorn is a write torn mid-slot (first sectors new, rest old).
	// Self-verifying stores report it as CorruptChecksum; the injection
	// wrapper labels it distinctly so tests can steer per-kind rules.
	CorruptTorn
	// CorruptMisdirect is a write that landed on the wrong slot: the stored
	// image carries a valid checksum for a different page id.
	CorruptMisdirect
)

// String names the kind for logs and error text.
func (k CorruptKind) String() string {
	switch k {
	case CorruptChecksum:
		return "checksum"
	case CorruptTorn:
		return "torn"
	case CorruptMisdirect:
		return "misdirect"
	}
	return fmt.Sprintf("corrupt-kind-%d", uint8(k))
}

// ErrCorrupt reports that a page's stored image failed integrity
// verification. It is permanent under IsTransient — rereading the same
// rotten bytes cannot change the outcome — so the pool's retry ladder never
// blindly reissues it; the read-repair path handles it instead.
type ErrCorrupt struct {
	Page policy.PageID
	Kind CorruptKind
}

// Error implements error.
func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("storage: page %d corrupt (%s)", e.Page, e.Kind)
}

// AsCorrupt extracts the typed corruption error from err's chain.
func AsCorrupt(err error) (*ErrCorrupt, bool) {
	var ce *ErrCorrupt
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}

// IsCorrupt reports whether err's chain contains an ErrCorrupt.
func IsCorrupt(err error) bool {
	_, ok := AsCorrupt(err)
	return ok
}

// Repairer is implemented by backends (and wrappers) that can attempt to
// restore a corrupt page from redundant state — the file backend replays
// the page's most recent image from the WAL tail. A nil return means the
// page now verifies intact; an ErrCorrupt return means no good image was
// available (the caller quarantines the page).
type Repairer interface {
	RepairPage(ctx context.Context, p policy.PageID) error
}

// CorruptRule describes one corruption-injection rule, matched against
// successful writes (corruption rides in on the write that the device
// mis-executed). Field semantics mirror FaultRule.
type CorruptRule struct {
	// Pages restricts the rule to the listed page ids; empty matches every
	// page.
	Pages []policy.PageID
	// After lets that many matching writes pass before the rule arms.
	After uint64
	// Count bounds how many corruptions the rule injects once armed; zero
	// means unlimited.
	Count uint64
	// Probability, when in (0, 1), corrupts each armed matching write with
	// this probability from the plan's seeded generator; zero (or ≥ 1)
	// corrupts every one.
	Probability float64
	// Kind labels the injected corruption; zero selects CorruptChecksum.
	// CorruptMisdirect taints the neighbouring page (id XOR 1) — the write
	// landed on the wrong slot — instead of the written page itself.
	Kind CorruptKind
	// Unrepairable marks the taint as beyond RepairPage: the backend's
	// redundant copy is gone too (a WAL already truncated). Only a fresh
	// overwrite of the slot clears it.
	Unrepairable bool
}

type corruptRule struct {
	CorruptRule
	pages    map[policy.PageID]struct{}
	seen     uint64
	injected uint64
}

// CorruptPlan is a deterministic corruption schedule over write operations,
// consulted first-match in declaration order, with all randomness drawn
// from one seeded generator (the same determinism contract as FaultPlan).
// Arm it with Corrupter.SetCorruption.
type CorruptPlan struct {
	mu    sync.Mutex
	rng   *stats.RNG
	rules []corruptRule
}

// NewCorruptPlan returns a plan with the given rules, seeded with seed.
func NewCorruptPlan(seed uint64, rules ...CorruptRule) *CorruptPlan {
	p := &CorruptPlan{rng: stats.NewRNG(seed)}
	for _, r := range rules {
		cr := corruptRule{CorruptRule: r}
		if cr.Kind == 0 {
			cr.Kind = CorruptChecksum
		}
		if len(r.Pages) > 0 {
			cr.pages = make(map[policy.PageID]struct{}, len(r.Pages))
			for _, pg := range r.Pages {
				cr.pages[pg] = struct{}{}
			}
		}
		p.rules = append(p.rules, cr)
	}
	return p
}

// check runs one write through the rules. fired reports whether a rule
// injected corruption; kind/unrepairable describe it. Safe on a nil plan.
func (p *CorruptPlan) check(page policy.PageID) (kind CorruptKind, unrepairable, fired bool) {
	if p == nil {
		return 0, false, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.rules {
		r := &p.rules[i]
		if r.pages != nil {
			if _, ok := r.pages[page]; !ok {
				continue
			}
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.injected >= r.Count {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 && p.rng.Float64() >= r.Probability {
			continue
		}
		r.injected++
		return r.Kind, r.Unrepairable, true
	}
	return 0, false, false
}

// taintState is one page's simulated media damage.
type taintState struct {
	kind         CorruptKind
	unrepairable bool
}

// CorruptStats is the injection wrapper's ledger. Under quiesced detection
// (no read racing a scrub of the same page) it reconciles exactly with the
// pool's integrity counters: Injected == Cleared + Tainted at any quiet
// point, and every Detected read resolves to one pool repair or quarantine.
type CorruptStats struct {
	// Injected counts clean→tainted transitions (a page corrupted while
	// already tainted is one injection, not two).
	Injected uint64
	// Detected counts reads refused with ErrCorrupt.
	Detected uint64
	// Cleared counts tainted→clean transitions, by overwrite or repair.
	Cleared uint64
	// Tainted is the number of currently tainted pages.
	Tainted int
}

// Corrupter is a Backend wrapper that injects seeded media corruption from
// an armed CorruptPlan. Writes pass through to the inner backend and may
// taint their page; reads of tainted pages fail with ErrCorrupt without an
// inner attempt (the inner ledger counts only genuine transfers, mirroring
// WithFaults). It implements Repairer: repairing a repairable taint clears
// it and delegates to the inner backend's Repairer when there is one, so a
// storm over the file store still exercises the real WAL-tail scan.
type Corrupter struct {
	Backend // the wrapped backend; methods not defined below are its own
	plan    atomic.Pointer[CorruptPlan]

	mu       sync.Mutex
	taint    map[policy.PageID]taintState
	injected uint64
	detected uint64
	cleared  uint64
}

// WithCorruption wraps inner with a corruption-injection stage (initially
// disarmed).
func WithCorruption(inner Backend) *Corrupter {
	return &Corrupter{Backend: inner, taint: make(map[policy.PageID]taintState)}
}

// SetCorruption arms (or, with nil, disarms) a corruption plan. Existing
// taints survive disarming — damage already on the media stays there.
func (c *Corrupter) SetCorruption(p *CorruptPlan) { c.plan.Store(p) }

// CorruptStats snapshots the injection ledger.
func (c *Corrupter) CorruptStats() CorruptStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CorruptStats{
		Injected: c.injected,
		Detected: c.detected,
		Cleared:  c.cleared,
		Tainted:  len(c.taint),
	}
}

// TaintedPages returns the ids of currently tainted pages, in no
// particular order.
func (c *Corrupter) TaintedPages() []policy.PageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]policy.PageID, 0, len(c.taint))
	for id := range c.taint {
		ids = append(ids, id)
	}
	return ids
}

// Read implements Backend: a tainted page is refused with ErrCorrupt, the
// detection a self-verifying store would make; clean pages pass through.
func (c *Corrupter) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	c.mu.Lock()
	ts, tainted := c.taint[p]
	if tainted {
		c.detected++
	}
	c.mu.Unlock()
	if tainted {
		return fmt.Errorf("read page %d: %w", p, &ErrCorrupt{Page: p, Kind: ts.kind})
	}
	return c.Backend.Read(ctx, p, buf)
}

// Write implements Backend. A successful write either corrupts per the
// armed plan (tainting the page, or its XOR-1 neighbour for misdirects) or
// — like a real overwrite of a damaged slot — clears the page's taint.
func (c *Corrupter) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if err := c.Backend.Write(ctx, p, buf); err != nil {
		return err
	}
	kind, unrepairable, fired := c.plan.Load().check(p)
	c.mu.Lock()
	if fired {
		target := p
		if kind == CorruptMisdirect {
			target = p ^ 1
		}
		if _, already := c.taint[target]; !already {
			c.injected++
		}
		c.taint[target] = taintState{kind: kind, unrepairable: unrepairable}
	} else if _, ok := c.taint[p]; ok {
		delete(c.taint, p)
		c.cleared++
	}
	c.mu.Unlock()
	return nil
}

// RepairPage implements Repairer. A repairable taint clears (the simulated
// damage sat over an intact inner image); an unrepairable one is reported
// back as ErrCorrupt. Either way a clean page delegates to the inner
// backend's Repairer, so real on-media corruption under the wrapper is
// still repaired — and real repair machinery still runs in storms.
func (c *Corrupter) RepairPage(ctx context.Context, p policy.PageID) error {
	c.mu.Lock()
	if ts, ok := c.taint[p]; ok {
		if ts.unrepairable {
			c.mu.Unlock()
			return fmt.Errorf("repair page %d: %w", p, &ErrCorrupt{Page: p, Kind: ts.kind})
		}
		delete(c.taint, p)
		c.cleared++
	}
	c.mu.Unlock()
	if r, ok := c.Backend.(Repairer); ok {
		return r.RepairPage(ctx, p)
	}
	return nil
}

// ChargeFault implements FaultCharger by delegation, so a fault wrapper
// stacked outside the corrupter still prices faulted operations on a
// backend that can (the simulator); a no-op otherwise.
func (c *Corrupter) ChargeFault(p policy.PageID) {
	if ch, ok := c.Backend.(FaultCharger); ok {
		ch.ChargeFault(p)
	}
}
