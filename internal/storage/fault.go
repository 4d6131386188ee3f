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

// This file implements deterministic fault injection as a Backend wrapper:
// a FaultPlan is a declarative list of rules deciding, per operation,
// whether the store fails it, and WithFaults arms a plan in front of any
// backend — the simulator and the durable file store alike. It exists so
// the buffer pool's error paths (failed miss reads, failed dirty-victim
// write-backs) can be exercised exactly and reproducibly instead of never.

// Op identifies a class of storage operations: fault rules match on it,
// and the buffer pool's I/O gate names the attempt it makes with it.
type Op uint8

const (
	// OpRead matches Backend.Read.
	OpRead Op = 1 << iota
	// OpWrite matches Backend.Write.
	OpWrite
	// OpAllocate matches Backend.Allocate. It is deliberately outside
	// OpAny: allocation faults (a full device, most usefully injected as
	// storage.ErrNoSpace) must be opted into explicitly so page-transfer
	// storms keep their exact read/write ledgers.
	OpAllocate
)

// OpAny matches every page-transfer storage operation (reads and writes).
const OpAny = OpRead | OpWrite

// ErrInjectedFault is the error a faulted operation returns unless its rule
// carries a custom Err. It is an ordinary error: the pool files it like any
// other disk failure.
var ErrInjectedFault = errors.New("storage: injected fault")

// FaultRule describes one error-injection rule. The zero value of each
// field is the permissive default, so a rule lists only its constraints:
//
//	FaultRule{Op: OpWrite, Pages: []policy.PageID{7}}      // every write of page 7 fails
//	FaultRule{Op: OpRead, After: 10, Count: 3}             // reads 11..13 fail
//	FaultRule{Probability: 0.01}                           // ~1% of all I/O fails
type FaultRule struct {
	// Op selects the operation classes the rule applies to; zero means
	// OpAny.
	Op Op
	// Pages restricts the rule to the listed page ids; empty matches every
	// page.
	Pages []policy.PageID
	// After lets that many matching operations pass before the rule arms.
	After uint64
	// Count bounds how many faults the rule injects once armed; zero means
	// unlimited.
	Count uint64
	// Probability, when in (0, 1), faults each armed matching operation
	// with this probability, drawn from the plan's seeded generator; zero
	// (or anything ≥ 1) faults every one.
	Probability float64
	// Err is the error injected; nil selects ErrInjectedFault.
	Err error
}

// faultRule is a FaultRule plus its runtime matching state.
type faultRule struct {
	FaultRule
	pages    map[policy.PageID]struct{} // nil when the rule matches all pages
	seen     uint64                     // matching operations observed so far
	injected uint64                     // faults injected so far
}

// FaultPlan is a deterministic fault-injection schedule: rules are
// consulted in declaration order and the first one that fires decides the
// operation's fate. All randomness flows from one seeded generator, so a
// single-threaded operation sequence faults identically on every run;
// under concurrency the decision *stream* is still the seeded one, but its
// assignment to operations follows arrival order.
//
// A FaultPlan is safe for concurrent use. Arm it with Faulty.SetFaults.
type FaultPlan struct {
	mu    sync.Mutex
	rng   *stats.RNG
	rules []faultRule
}

// NewFaultPlan returns a plan with the given rules, drawing probabilistic
// decisions from a generator seeded with seed.
func NewFaultPlan(seed uint64, rules ...FaultRule) *FaultPlan {
	p := &FaultPlan{rng: stats.NewRNG(seed)}
	for _, r := range rules {
		fr := faultRule{FaultRule: r}
		if fr.Op == 0 {
			fr.Op = OpAny
		}
		if fr.Err == nil {
			fr.Err = ErrInjectedFault
		}
		if len(r.Pages) > 0 {
			fr.pages = make(map[policy.PageID]struct{}, len(r.Pages))
			for _, pg := range r.Pages {
				fr.pages[pg] = struct{}{}
			}
		}
		p.rules = append(p.rules, fr)
	}
	return p
}

// check runs one operation through the rules and returns the injected
// error, if any. An operation is charged against every rule in order until
// one fires. Safe on a nil plan.
func (p *FaultPlan) check(op Op, page policy.PageID) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.rules {
		r := &p.rules[i]
		if r.Op&op == 0 {
			continue
		}
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
		return r.Err
	}
	return nil
}

// FaultCharger is optionally implemented by backends that price faulted
// operations: a failed I/O still cost device time (the arm still moved).
// The simulator implements it so charging a doomed operation runs its
// ServiceModel.Delay hook — tests can park a faulted read exactly like a
// successful one.
type FaultCharger interface {
	ChargeFault(p policy.PageID)
}

// Faulty is a Backend wrapper that injects deterministic faults from an
// armed FaultPlan. Faulted operations never reach the inner backend (so its
// Reads/Writes ledgers count only genuine transfers); the wrapper counts
// them in ReadFaults/WriteFaults and, when the inner backend implements
// FaultCharger, charges it for the wasted device time.
type Faulty struct {
	Backend              // the wrapped backend; methods not defined below are its own
	charger FaultCharger // nil when the wrapped backend does not price faults
	plan    atomic.Pointer[FaultPlan]

	readFaults  atomic.Uint64
	writeFaults atomic.Uint64
}

// WithFaults wraps inner with a fault-injection stage (initially disarmed).
func WithFaults(inner Backend) *Faulty {
	f := &Faulty{Backend: inner}
	if c, ok := inner.(FaultCharger); ok {
		f.charger = c
	}
	return f
}

// SetFaults arms (or, with nil, disarms) a fault-injection plan. It may be
// called at any time, including while operations are in flight; operations
// already past their fault check complete normally.
func (f *Faulty) SetFaults(p *FaultPlan) { f.plan.Store(p) }

// RepairPage implements Repairer by passing the call to the wrapped
// backend, unfaulted: repair is the backend's own protocol, not caller
// I/O. When that backend cannot repair, it reports the page unrepairable,
// which a caller treats like having no repairer at all.
func (f *Faulty) RepairPage(ctx context.Context, p policy.PageID) error {
	if r, ok := f.Backend.(Repairer); ok {
		return r.RepairPage(ctx, p)
	}
	return fmt.Errorf("repair page %d: %w", p, &ErrCorrupt{Page: p, Kind: CorruptChecksum})
}

// Read implements Backend.
func (f *Faulty) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if ferr := f.plan.Load().check(OpRead, p); ferr != nil {
		f.readFaults.Add(1)
		if f.charger != nil {
			f.charger.ChargeFault(p)
		}
		return fmt.Errorf("read page %d: %w", p, ferr)
	}
	return f.Backend.Read(ctx, p, buf)
}

// Write implements Backend.
func (f *Faulty) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if ferr := f.plan.Load().check(OpWrite, p); ferr != nil {
		f.writeFaults.Add(1)
		if f.charger != nil {
			f.charger.ChargeFault(p)
		}
		return fmt.Errorf("write page %d: %w", p, ferr)
	}
	return f.Backend.Write(ctx, p, buf)
}

// Allocate implements Backend. Rules targeting OpAllocate fault it (the
// page id matched is -1: no page exists yet, so Pages-restricted rules
// never fire here); allocation faults are not counted in the read/write
// fault ledgers.
func (f *Faulty) Allocate() (policy.PageID, error) {
	if ferr := f.plan.Load().check(OpAllocate, -1); ferr != nil {
		return 0, fmt.Errorf("allocate page: %w", ferr)
	}
	return f.Backend.Allocate()
}

// Stats implements Backend, merging the wrapper's fault counters into the
// inner backend's ledger.
func (f *Faulty) Stats() Stats {
	s := f.Backend.Stats()
	s.ReadFaults += f.readFaults.Load()
	s.WriteFaults += f.writeFaults.Load()
	return s
}
