// Package storagetest holds the test apparatus of the storage seam: two
// injectors that wrap any storage.Backend — deterministic fault injection
// (WithFaults arms a FaultPlan, a declarative list of rules deciding per
// operation whether the store fails it) and silent media corruption
// (WithCorruption) — and MustAllocate. Tests compose them over the
// simulated disk or the durable file store and hand the result to the
// buffer pool or db.Open, so the pool's error paths run exactly and
// reproducibly instead of never. No serving code wraps a backend, so
// nothing here is linked into a daemon.
package storagetest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
)

// ErrInjectedFault is the error a faulted operation returns unless its rule
// carries a custom Err. It is an ordinary error: the pool files it like any
// other disk failure.
var ErrInjectedFault = errors.New("storage: injected fault")

// FaultRule describes one error-injection rule. The zero value of each
// field is the permissive default, so a rule lists only its constraints:
//
//	FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{7}} // every write of page 7 fails
//	FaultRule{Op: storage.OpRead, After: 10, Count: 3}        // reads 11..13 fail
//	FaultRule{Probability: 0.01}                              // ~1% of all I/O fails
type FaultRule struct {
	// Op selects the operation classes the rule applies to; zero means
	// storage.OpAny. storage.OpAllocate, outside OpAny, must be named.
	Op storage.Op
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
			fr.Op = storage.OpAny
		}
		if fr.Err == nil {
			fr.Err = ErrInjectedFault
		}
		fr.pages = pageSet(r.Pages)
		p.rules = append(p.rules, fr)
	}
	return p
}

// pageSet indexes a rule's page list; nil (match every page) when empty.
func pageSet(pages []policy.PageID) map[policy.PageID]struct{} {
	if len(pages) == 0 {
		return nil
	}
	set := make(map[policy.PageID]struct{}, len(pages))
	for _, pg := range pages {
		set[pg] = struct{}{}
	}
	return set
}

// check runs one operation through the rules and returns the injected
// error, if any. An operation is charged against every rule in order until
// one fires. Safe on a nil plan.
func (p *FaultPlan) check(op storage.Op, page policy.PageID) error {
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

// FaultStats is the fault wrapper's own ledger: operations failed by an
// armed FaultPlan. Faulted operations transfer no data and never reach the
// wrapped backend, so its Stats count only genuine transfers; on the
// simulator they still cost service time (the arm still moved).
type FaultStats struct {
	ReadFaults  uint64
	WriteFaults uint64
}

// Faulty is a Backend wrapper that injects deterministic faults from an
// armed FaultPlan. It implements storage.Repairer by passing repair to the
// wrapped backend, and storage.DurableBackend when, and only when, the
// wrapped backend does: a fault plan over the durable file store leaves it
// durable, one over the simulated disk does not make it so.
type Faulty interface {
	storage.Backend
	storage.Repairer
	// SetFaults arms (or, with nil, disarms) a fault-injection plan. It may
	// be called at any time, including while operations are in flight;
	// operations already past their fault check complete normally.
	SetFaults(p *FaultPlan)
	// FaultStats snapshots the fault ledger.
	FaultStats() FaultStats
}

// faulty is the Faulty over a backend without Recovery.
type faulty struct {
	storage.Backend              // the wrapped backend; methods not defined below are its own
	charger         FaultCharger // nil when the wrapped backend does not price faults
	plan            atomic.Pointer[FaultPlan]

	readFaults  atomic.Uint64
	writeFaults atomic.Uint64
}

// durableFaulty is the Faulty over a storage.DurableBackend.
type durableFaulty struct {
	*faulty
	durable storage.DurableBackend
}

// Recovery implements storage.DurableBackend by delegation.
func (f durableFaulty) Recovery() storage.RecoveryInfo { return f.durable.Recovery() }

// WithFaults wraps inner with a fault-injection stage (initially disarmed).
// Faulted operations never reach inner; when inner implements FaultCharger
// it is charged for the wasted device time.
func WithFaults(inner storage.Backend) Faulty {
	f := &faulty{Backend: inner}
	f.charger, _ = inner.(FaultCharger)
	if d, ok := inner.(storage.DurableBackend); ok {
		return durableFaulty{f, d}
	}
	return f
}

func (f *faulty) SetFaults(p *FaultPlan) { f.plan.Store(p) }

func (f *faulty) FaultStats() FaultStats {
	return FaultStats{ReadFaults: f.readFaults.Load(), WriteFaults: f.writeFaults.Load()}
}

// RepairPage implements storage.Repairer by passing the call to the wrapped
// backend, unfaulted: repair is the backend's own protocol, not caller
// I/O. When that backend cannot repair, it reports the page unrepairable,
// which a caller treats like having no repairer at all.
func (f *faulty) RepairPage(ctx context.Context, p policy.PageID) error {
	if r, ok := f.Backend.(storage.Repairer); ok {
		return r.RepairPage(ctx, p)
	}
	return fmt.Errorf("repair page %d: %w", p, &storage.ErrCorrupt{Page: p, Kind: storage.CorruptChecksum})
}

// fault reports the injected error for one page transfer, if any, counting
// it and charging the wrapped backend.
func (f *faulty) fault(op storage.Op, p policy.PageID, count *atomic.Uint64) error {
	ferr := f.plan.Load().check(op, p)
	if ferr == nil {
		return nil
	}
	count.Add(1)
	if f.charger != nil {
		f.charger.ChargeFault(p)
	}
	return ferr
}

// Read implements storage.Backend.
func (f *faulty) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if ferr := f.fault(storage.OpRead, p, &f.readFaults); ferr != nil {
		return fmt.Errorf("read page %d: %w", p, ferr)
	}
	return f.Backend.Read(ctx, p, buf)
}

// Write implements storage.Backend.
func (f *faulty) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if ferr := f.fault(storage.OpWrite, p, &f.writeFaults); ferr != nil {
		return fmt.Errorf("write page %d: %w", p, ferr)
	}
	return f.Backend.Write(ctx, p, buf)
}

// Allocate implements storage.Backend. Rules targeting storage.OpAllocate
// fault it (the page id matched is -1: no page exists yet, so
// Pages-restricted rules never fire here); allocation faults are not
// counted in the read/write fault ledgers.
func (f *faulty) Allocate() (policy.PageID, error) {
	if ferr := f.plan.Load().check(storage.OpAllocate, -1); ferr != nil {
		return 0, fmt.Errorf("allocate page: %w", ferr)
	}
	return f.Backend.Allocate()
}

// MustAllocate allocates a page and panics on failure. Tests and setup
// code over the simulated backend (whose Allocate cannot fail) use it to
// keep allocation loops terse.
func MustAllocate(b storage.Backend) policy.PageID {
	p, err := b.Allocate()
	if err != nil {
		panic(err)
	}
	return p
}
