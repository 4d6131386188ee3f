// Package storagetest holds the test apparatus of the storage seam:
// MustAllocate, and one injector (Wrap) that wraps any storage.Backend and,
// from an armed Plan of rules, fails operations before they reach the
// backend (deterministic faults) or taints pages written through it
// (silent media corruption). Tests compose it over the simulated disk or
// the durable file store and hand the result to the buffer pool or
// db.Open, so the pool's error paths run exactly and reproducibly. No
// serving code wraps a backend, so nothing here is linked into a daemon.
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

// Rule describes one injection rule. A rule with a zero Corrupt is a fault
// rule: it fails a matching operation before it reaches the wrapped
// backend. A rule with a non-zero Corrupt is a corruption rule: it is
// matched against successful writes (corruption rides in on the write the
// device mis-executed) and taints a page. The zero value of each field is
// the permissive default, so a rule lists only its constraints:
//
//	Rule{Op: storage.OpWrite, Pages: []policy.PageID{7}} // every write of page 7 fails
//	Rule{Op: storage.OpRead, After: 10, Count: 3}        // reads 11..13 fail
//	Rule{Probability: 0.01}                              // ~1% of all I/O fails
//	Rule{Corrupt: storage.CorruptChecksum, Count: 1}     // the next write lands rotten
type Rule struct {
	// Op selects the operation classes the rule applies to; zero means
	// storage.OpAny. storage.OpAllocate, outside OpAny, must be named. A
	// corruption rule sees writes only.
	Op storage.Op
	// Pages restricts the rule to the listed page ids; empty matches every
	// page.
	Pages []policy.PageID
	// After lets that many matching operations pass before the rule arms.
	After uint64
	// Count bounds how many injections the rule makes once armed; zero
	// means unlimited.
	Count uint64
	// Probability, when in (0, 1), fires the rule on each armed matching
	// operation with this probability, drawn from the plan's seeded
	// generator; zero (or anything ≥ 1) fires on every one.
	Probability float64
	// Err is the error a fault rule injects; nil selects ErrInjectedFault.
	Err error
	// Corrupt, when non-zero, makes the rule a corruption rule and labels
	// the taint it leaves. storage.CorruptMisdirect taints the neighbouring
	// page (id XOR 1) — the write landed on the wrong slot — instead of the
	// written page itself.
	Corrupt storage.CorruptKind
	// Unrepairable marks a corruption rule's taint as beyond RepairPage:
	// the backend's redundant copy is gone too (a WAL already truncated).
	// Only a fresh overwrite of the slot clears it.
	Unrepairable bool
}

// rule is a Rule plus its runtime matching state.
type rule struct {
	Rule
	pages    map[policy.PageID]struct{} // nil when the rule matches all pages
	seen     uint64                     // matching operations observed so far
	injected uint64                     // injections made so far
}

// Plan is a deterministic injection schedule, safe for concurrent use; arm
// it with Injector.SetPlan. Fault rules are consulted before an operation
// reaches the wrapped backend, corruption rules after a write succeeds;
// within each kind, rules are consulted in declaration order and the first
// one that fires decides. All randomness flows from one seeded generator
// shared by both kinds, so a single-threaded operation sequence is injected
// identically on every run; under concurrency the decision *stream* is
// still the seeded one, but its assignment to operations follows arrival
// order.
type Plan struct {
	mu       sync.Mutex
	rng      *stats.RNG
	faults   []rule
	corrupts []rule
}

// NewPlan returns a plan with the given rules, drawing probabilistic
// decisions from a generator seeded with seed.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	p := &Plan{rng: stats.NewRNG(seed)}
	for _, r := range rules {
		if r.Op == 0 {
			r.Op = storage.OpAny
		}
		pr := rule{Rule: r}
		if len(r.Pages) > 0 {
			pr.pages = make(map[policy.PageID]struct{}, len(r.Pages))
			for _, pg := range r.Pages {
				pr.pages[pg] = struct{}{}
			}
		}
		if r.Corrupt != 0 {
			p.corrupts = append(p.corrupts, pr)
			continue
		}
		if pr.Err == nil {
			pr.Err = ErrInjectedFault
		}
		p.faults = append(p.faults, pr)
	}
	return p
}

// match runs one operation through rules and returns the rule that fires,
// or nil. An operation is charged against every rule in order until one
// fires. A list with no rules takes no lock.
func (p *Plan) match(rules []rule, op storage.Op, page policy.PageID) *Rule {
	if len(rules) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range rules {
		r := &rules[i]
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
		return &r.Rule
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

// Ledger is the injector's own account: the wrapped backend's Stats count
// only the transfers that reached it. Under quiesced detection (no read racing a scrub of the same page) the
// corruption fields reconcile exactly with the pool's integrity counters:
// Injected == Cleared + Tainted at any quiet point, and every Detected read
// resolves to one pool repair or quarantine.
type Ledger struct {
	// ReadFaults and WriteFaults count operations failed by fault rules
	// (allocation faults are in neither).
	ReadFaults  uint64
	WriteFaults uint64
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

// Injector is a Backend wrapper that injects faults and corruption from an
// armed Plan. It implements storage.Repairer, and storage.DurableBackend
// when, and only when, the wrapped backend does: a plan over the durable
// file store leaves it durable, one over the simulated disk does not make
// it so.
type Injector interface {
	storage.Backend
	storage.Repairer
	// SetPlan arms (or, with nil, disarms) an injection plan. It may be
	// called at any time, including while operations are in flight;
	// operations already past a check complete normally. Existing taints
	// survive disarming — damage already on the media stays there.
	SetPlan(p *Plan)
	// Ledger snapshots the injection ledger.
	Ledger() Ledger
	// TaintedPages returns the ids of currently tainted pages, in no
	// particular order.
	TaintedPages() []policy.PageID
}

// injector is the Injector over a backend without Recovery.
type injector struct {
	storage.Backend              // the wrapped backend; methods not defined below are its own
	charger         FaultCharger // nil when the wrapped backend does not price faults
	plan            atomic.Pointer[Plan]

	readFaults  atomic.Uint64
	writeFaults atomic.Uint64

	// ntaint mirrors len(taint), so I/O over an untainted disk takes no
	// lock, which would order it for the race detector. taint maps a page
	// to the rule that damaged it.
	ntaint   atomic.Int64
	mu       sync.Mutex
	taint    map[policy.PageID]*Rule
	injected uint64
	detected uint64
	cleared  uint64
}

// durableInjector is the Injector over a storage.DurableBackend.
type durableInjector struct {
	*injector
	durable storage.DurableBackend
}

// Recovery implements storage.DurableBackend by delegation.
func (d durableInjector) Recovery() storage.RecoveryInfo { return d.durable.Recovery() }

// Wrap wraps inner with an injection stage, initially disarmed. When inner
// implements FaultCharger it is charged for each faulted transfer.
func Wrap(inner storage.Backend) Injector {
	w := &injector{Backend: inner, taint: make(map[policy.PageID]*Rule)}
	w.charger, _ = inner.(FaultCharger)
	if d, ok := inner.(storage.DurableBackend); ok {
		return durableInjector{w, d}
	}
	return w
}

func (w *injector) SetPlan(p *Plan) { w.plan.Store(p) }

func (w *injector) Ledger() Ledger {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Ledger{
		ReadFaults:  w.readFaults.Load(),
		WriteFaults: w.writeFaults.Load(),
		Injected:    w.injected,
		Detected:    w.detected,
		Cleared:     w.cleared,
		Tainted:     len(w.taint),
	}
}

func (w *injector) TaintedPages() []policy.PageID {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]policy.PageID, 0, len(w.taint))
	for id := range w.taint {
		ids = append(ids, id)
	}
	return ids
}

// fault reports the error a fault rule injects into one operation, if any.
// A faulted page transfer is counted in count and charged to the wrapped
// backend; an allocation (count nil) moved no page, so it is neither.
func (w *injector) fault(op storage.Op, p policy.PageID, count *atomic.Uint64) error {
	plan := w.plan.Load()
	if plan == nil {
		return nil
	}
	r := plan.match(plan.faults, op, p)
	if r == nil {
		return nil
	}
	if count != nil {
		count.Add(1)
		if w.charger != nil {
			w.charger.ChargeFault(p)
		}
	}
	return r.Err
}

// Read implements storage.Backend: a faulted read or a read of a tainted
// page (storage.ErrCorrupt, the detection a self-verifying store would
// make) fails without an inner attempt; the rest pass through.
func (w *injector) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if ferr := w.fault(storage.OpRead, p, &w.readFaults); ferr != nil {
		return fmt.Errorf("read page %d: %w", p, ferr)
	}
	if w.ntaint.Load() > 0 {
		w.mu.Lock()
		r := w.taint[p]
		if r != nil {
			w.detected++
		}
		w.mu.Unlock()
		if r != nil {
			return fmt.Errorf("read page %d: %w", p, &storage.ErrCorrupt{Page: p, Kind: r.Corrupt})
		}
	}
	return w.Backend.Read(ctx, p, buf)
}

// Write implements storage.Backend. A faulted write never reaches inner. A
// successful one either corrupts per the armed plan (tainting the page, or
// its XOR-1 neighbour for misdirects) or — like a real overwrite of a
// damaged slot — clears the page's taint.
func (w *injector) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if ferr := w.fault(storage.OpWrite, p, &w.writeFaults); ferr != nil {
		return fmt.Errorf("write page %d: %w", p, ferr)
	}
	if err := w.Backend.Write(ctx, p, buf); err != nil {
		return err
	}
	var r *Rule
	if plan := w.plan.Load(); plan != nil {
		r = plan.match(plan.corrupts, storage.OpWrite, p)
	}
	if r == nil && w.ntaint.Load() == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if r != nil {
		target := p
		if r.Corrupt == storage.CorruptMisdirect {
			target = p ^ 1
		}
		if _, already := w.taint[target]; !already {
			w.injected++
		}
		w.taint[target] = r
	} else if _, ok := w.taint[p]; ok {
		delete(w.taint, p)
		w.cleared++
	}
	w.ntaint.Store(int64(len(w.taint)))
	return nil
}

// Allocate implements storage.Backend. Fault rules naming
// storage.OpAllocate fault it; the page id matched is -1 (no page exists
// yet), so Pages-restricted rules never fire here.
func (w *injector) Allocate() (policy.PageID, error) {
	if ferr := w.fault(storage.OpAllocate, -1, nil); ferr != nil {
		return 0, fmt.Errorf("allocate page: %w", ferr)
	}
	return w.Backend.Allocate()
}

// RepairPage implements storage.Repairer, unfaulted: repair is the
// backend's own protocol, not caller I/O. An unrepairable taint is
// reported back as storage.ErrCorrupt; a repairable one clears (the damage
// sat over an intact inner image). Then the call passes to the wrapped
// backend's Repairer, so the file store's WAL-tail scan still runs; a
// backend that is no Repairer holds no rot of its own, so the page
// verifies: nil.
func (w *injector) RepairPage(ctx context.Context, p policy.PageID) error {
	w.mu.Lock()
	if r := w.taint[p]; r != nil {
		if r.Unrepairable {
			w.mu.Unlock()
			return fmt.Errorf("repair page %d: %w", p, &storage.ErrCorrupt{Page: p, Kind: r.Corrupt})
		}
		delete(w.taint, p)
		w.cleared++
		w.ntaint.Store(int64(len(w.taint)))
	}
	w.mu.Unlock()
	if r, ok := w.Backend.(storage.Repairer); ok {
		return r.RepairPage(ctx, p)
	}
	return nil
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
