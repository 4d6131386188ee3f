// Package sim implements storage.Backend as the simulated database disk of
// the paper's setting: a page store in memory with explicit read/write
// operations, allocation, and a service-time model (seek + rotational
// latency + transfer, with cheap sequential access) so experiments can
// report simulated I/O cost next to hit ratios. The "Five Minute Rule"
// economics the paper builds on ([GRAYPUT]) are about exactly this trade:
// memory buffers versus disk arm time.
//
// Pages live in chunks of the process's page arena (storage.TakeChunk),
// outside the Go heap in normal builds, addressed by id (chunk.go);
// durability is storage/file's job. The manager is safe for concurrent use,
// and concurrently at that: pages are latched by stripes keyed by PageID
// hash, the chunk table is read without a lock, and all counters are
// atomics, so reads and writes to different pages proceed in parallel. The
// optional ServiceModel.Delay hook injects real latency per operation
// (outside every latch), letting benchmarks exercise a pool's ability to
// overlap concurrent I/O. Fault injection lives in the
// backend-agnostic storagetest.Wrap injector; the manager implements
// storagetest.FaultCharger so a faulted operation still costs arm time and
// still runs the Delay hook.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/storage"
)

// PageSize is the simulated page size in bytes (storage.PageSize).
const PageSize = storage.PageSize

// numStripes is the number of independently latched page-store partitions.
const numStripes = storage.DefaultStripes

// ServiceModel prices disk operations in simulated microseconds.
type ServiceModel struct {
	// SeekMicros is the arm seek plus rotational latency for a random
	// access. Default 12000 (a circa-1993 disk; the absolute value only
	// scales reports).
	SeekMicros int64
	// TransferMicros is the per-page transfer time. Default 400.
	TransferMicros int64
	// Delay, when non-nil, is invoked after each read or write with the
	// operation's priced service time, outside all locks. Injecting e.g. a
	// scaled time.Sleep here turns the accounting-only model into real
	// latency, so concurrent callers genuinely overlap their I/O — the
	// condition under which latch partitioning pays off.
	Delay func(serviceMicros int64)
}

func (m ServiceModel) withDefaults() ServiceModel {
	if m.SeekMicros == 0 {
		m.SeekMicros = 12000
	}
	if m.TransferMicros == 0 {
		m.TransferMicros = 400
	}
	return m
}

// Manager is the simulated disk.
type Manager struct {
	model   ServiceModel
	stripes [numStripes]stripe
	mem     arena
	// lastOp is the page id of the most recent priced operation, for
	// sequential-access pricing; -1 means none yet. Under concurrency the
	// sequential discount is approximate (operation order is whatever the
	// hardware interleaves); single-threaded it is exact.
	lastOp atomic.Int64

	reads         atomic.Uint64
	writes        atomic.Uint64
	allocated     atomic.Uint64
	serviceMicros atomic.Int64
}

type stripe struct {
	mu sync.RWMutex
	// closed is set under mu by Close: every Read and Write after it fails.
	closed bool
	// Pad to 64 bytes so adjacent stripe latches do not share a cache line.
	_ [39]byte
}

// New returns an empty simulated disk with the given service model (zero
// value for defaults). A manager that is never closed returns its page
// memory when the garbage collector finds it unreachable.
func New(model ServiceModel) *Manager {
	m := &Manager{model: model.withDefaults()}
	m.lastOp.Store(int64(policy.InvalidPage))
	m.mem.table.Store(new([]*chunk))
	runtime.SetFinalizer(m, (*Manager).Close)
	return m
}

// locate returns page p's image and written flag for op. The caller holds
// p's stripe latch s.
func (m *Manager) locate(op string, p policy.PageID, s *stripe) ([]byte, *bool, error) {
	if s.closed {
		return nil, nil, fmt.Errorf("%s page %d: %w", op, p, errClosed)
	}
	if p < 0 || int64(p) >= m.mem.next.Load() {
		return nil, nil, fmt.Errorf("%s page %d: %w", op, p, storage.ErrPageNotAllocated)
	}
	c, i := (*m.mem.table.Load())[p/storage.ChunkPages], int(p%storage.ChunkPages)
	return c.mem[i*PageSize : (i+1)*PageSize], &c.written[i], nil
}

func (m *Manager) stripe(p policy.PageID) *stripe {
	return &m.stripes[storage.StripeIndex(p, numStripes)]
}

// Allocate reserves a fresh page, which reads as zeros, and returns its id.
// It fails only on a closed manager, or when the kernel refuses a new chunk.
func (m *Manager) Allocate() (policy.PageID, error) {
	id, err := m.mem.alloc()
	if err != nil {
		return policy.InvalidPage, fmt.Errorf("allocate page: %w", err)
	}
	m.allocated.Add(1)
	return id, nil
}

// Read copies page p into buf, which must hold PageSize bytes. The context
// is ignored: simulated I/O has no blocking point to interrupt.
func (m *Manager) Read(_ context.Context, p policy.PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("sim: read buffer of %d bytes, want %d", len(buf), PageSize)
	}
	s := m.stripe(p)
	s.mu.RLock()
	pg, written, err := m.locate("read", p, s)
	if err == nil {
		if *written {
			copy(buf, pg)
		} else {
			clear(buf)
		}
	}
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	m.reads.Add(1)
	m.charge(p)
	return nil
}

// Write stores buf as the new contents of page p.
func (m *Manager) Write(_ context.Context, p policy.PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("sim: write buffer of %d bytes, want %d", len(buf), PageSize)
	}
	s := m.stripe(p)
	s.mu.Lock()
	pg, written, err := m.locate("write", p, s)
	if err == nil {
		copy(pg, buf)
		*written = true
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	m.writes.Add(1)
	m.charge(p)
	return nil
}

// ChargeFault implements storagetest.FaultCharger: a failed I/O still costs
// arm time, and charging runs the Delay hook, so tests can park a doomed
// read like a successful one.
func (m *Manager) ChargeFault(p policy.PageID) { m.charge(p) }

// charge prices one operation on page p — sequential successors skip the
// seek — and runs the injected delay, if any, outside all locks.
func (m *Manager) charge(p policy.PageID) {
	cost := m.model.TransferMicros
	if last := m.lastOp.Swap(int64(p)); last < 0 || int64(p) != last+1 {
		cost += m.model.SeekMicros
	}
	m.serviceMicros.Add(cost)
	if m.model.Delay != nil {
		m.model.Delay(cost)
	}
}

// Flush implements storage.Backend: the simulator has no volatile state
// below its pages, so the durability barrier is a no-op.
func (m *Manager) Flush(context.Context) error { return nil }

// Close implements storage.Backend. It marks every stripe closed under its
// latch, so operations after it fail and none in flight still reads or
// writes a page, then hands the page memory to the next manager. A second
// Close is a no-op.
func (m *Manager) Close() error {
	m.mem.mu.Lock()
	defer m.mem.mu.Unlock()
	if m.mem.closed {
		return nil
	}
	m.mem.closed = true
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
	}
	m.mem.release()
	return nil
}

// Stats returns a snapshot of cumulative activity. Under concurrent load
// the counters are individually exact but not mutually consistent (they
// are read without a global latch). Injected faults are counted in the
// storagetest.Wrap injector's own ledger, not here.
func (m *Manager) Stats() storage.Stats {
	return storage.Stats{
		Reads:         m.reads.Load(),
		Writes:        m.writes.Load(),
		Allocated:     m.allocated.Load(),
		ServiceMicros: m.serviceMicros.Load(),
	}
}

// NumPages returns the number of currently allocated pages: none once the
// manager is closed.
func (m *Manager) NumPages() int { return int(m.mem.next.Load()) }
