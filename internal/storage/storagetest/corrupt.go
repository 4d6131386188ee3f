package storagetest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
)

// This file is the corruption half of the fault model: WithCorruption — a
// Backend wrapper (sibling of WithFaults) that injects seeded media
// corruption so the pool's detect→repair→quarantine paths can be exercised
// identically over the simulator and the durable file store.
//
// The wrapper models corruption as *taint*: a write may, per the armed
// plan, leave its page (or a misdirected neighbour) marked corrupt. A read
// of a tainted page is refused with storage.ErrCorrupt without touching
// the inner backend — exactly what a self-verifying store does when a
// trailer check fails — and the taint clears the way real corruption does:
// a fresh overwrite of the slot, or a successful RepairPage.

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
	// Kind labels the injected corruption; zero selects
	// storage.CorruptChecksum. storage.CorruptMisdirect taints the
	// neighbouring page (id XOR 1) — the write landed on the wrong slot —
	// instead of the written page itself.
	Kind storage.CorruptKind
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
			cr.Kind = storage.CorruptChecksum
		}
		cr.pages = pageSet(r.Pages)
		p.rules = append(p.rules, cr)
	}
	return p
}

// check runs one write through the rules. fired reports whether a rule
// injected corruption; kind/unrepairable describe it. Safe on a nil plan.
func (p *CorruptPlan) check(page policy.PageID) (kind storage.CorruptKind, unrepairable, fired bool) {
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
	kind         storage.CorruptKind
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
	// Detected counts reads refused with storage.ErrCorrupt.
	Detected uint64
	// Cleared counts tainted→clean transitions, by overwrite or repair.
	Cleared uint64
	// Tainted is the number of currently tainted pages.
	Tainted int
}

// Corrupter is a Backend wrapper that injects seeded media corruption from
// an armed CorruptPlan. Writes pass through to the inner backend and may
// taint their page; reads of tainted pages fail with storage.ErrCorrupt
// without an inner attempt (the inner ledger counts only genuine
// transfers, mirroring WithFaults). It implements storage.Repairer:
// repairing a repairable taint clears it and delegates to the inner
// backend's Repairer when there is one, so a storm over the file store
// still exercises the real WAL-tail scan.
type Corrupter struct {
	storage.Backend // the wrapped backend; methods not defined below are its own
	plan            atomic.Pointer[CorruptPlan]

	mu       sync.Mutex
	taint    map[policy.PageID]taintState
	injected uint64
	detected uint64
	cleared  uint64
}

// WithCorruption wraps inner with a corruption-injection stage (initially
// disarmed).
func WithCorruption(inner storage.Backend) *Corrupter {
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

// Read implements storage.Backend: a tainted page is refused with
// storage.ErrCorrupt, the detection a self-verifying store would make;
// clean pages pass through.
func (c *Corrupter) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	c.mu.Lock()
	ts, tainted := c.taint[p]
	if tainted {
		c.detected++
	}
	c.mu.Unlock()
	if tainted {
		return fmt.Errorf("read page %d: %w", p, &storage.ErrCorrupt{Page: p, Kind: ts.kind})
	}
	return c.Backend.Read(ctx, p, buf)
}

// Write implements storage.Backend. A successful write either corrupts per
// the armed plan (tainting the page, or its XOR-1 neighbour for misdirects)
// or — like a real overwrite of a damaged slot — clears the page's taint.
func (c *Corrupter) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if err := c.Backend.Write(ctx, p, buf); err != nil {
		return err
	}
	kind, unrepairable, fired := c.plan.Load().check(p)
	c.mu.Lock()
	if fired {
		target := p
		if kind == storage.CorruptMisdirect {
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

// RepairPage implements storage.Repairer. A repairable taint clears (the
// simulated damage sat over an intact inner image); an unrepairable one is
// reported back as storage.ErrCorrupt. Either way a clean page delegates to
// the inner backend's Repairer, so real on-media corruption under the
// wrapper is still repaired — and real repair machinery still runs in
// storms.
func (c *Corrupter) RepairPage(ctx context.Context, p policy.PageID) error {
	c.mu.Lock()
	if ts, ok := c.taint[p]; ok {
		if ts.unrepairable {
			c.mu.Unlock()
			return fmt.Errorf("repair page %d: %w", p, &storage.ErrCorrupt{Page: p, Kind: ts.kind})
		}
		delete(c.taint, p)
		c.cleared++
	}
	c.mu.Unlock()
	if r, ok := c.Backend.(storage.Repairer); ok {
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
