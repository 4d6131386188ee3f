package storage_test

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

func TestCorruptTaintAndDetect(t *testing.T) {
	c, ids := injectorBackend(t, 2)
	c.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Corrupt: storage.CorruptChecksum, Pages: []policy.PageID{ids[0]}}))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The write landed (inner ledger counts it) but tainted the page.
	err := c.Read(ctx, ids[0], buf)
	ce, ok := storage.AsCorrupt(err)
	if !ok || ce.Page != ids[0] || ce.Kind != storage.CorruptChecksum {
		t.Fatalf("read of tainted page: %v, want ErrCorrupt{%d, checksum}", err, ids[0])
	}
	if err := c.Read(ctx, ids[1], buf); err != nil {
		t.Fatalf("read of clean page: %v", err)
	}
	// Tainted reads never reach the inner backend: only the untainted read
	// and none of the refused ones count as genuine transfers.
	if s := c.Stats(); s.Reads != 1 || s.Writes != 1 {
		t.Errorf("inner stats %+v, want exactly 1 read and 1 write", s)
	}
	if s := c.Ledger(); s.Injected != 1 || s.Detected != 1 || s.Cleared != 0 || s.Tainted != 1 {
		t.Errorf("corrupt stats %+v, want injected=1 detected=1 cleared=0 tainted=1", s)
	}
}

func TestCorruptOverwriteClears(t *testing.T) {
	c, ids := injectorBackend(t, 1)
	c.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Corrupt: storage.CorruptChecksum, Count: 1, Unrepairable: true}))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := c.Read(ctx, ids[0], buf); !storage.IsCorrupt(err) {
		t.Fatalf("read after taint: %v, want corrupt", err)
	}
	// A fresh overwrite clears even an unrepairable taint (rule exhausted,
	// so the second write does not re-fire).
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := c.Read(ctx, ids[0], buf); err != nil {
		t.Fatalf("read after overwrite: %v, want clean", err)
	}
	if s := c.Ledger(); s.Injected != 1 || s.Cleared != 1 || s.Tainted != 0 {
		t.Errorf("corrupt stats %+v, want injected=1 cleared=1 tainted=0", s)
	}
}

func TestCorruptRepairPage(t *testing.T) {
	c, ids := injectorBackend(t, 2)
	c.SetPlan(storagetest.NewPlan(1,
		storagetest.Rule{Corrupt: storage.CorruptChecksum, Pages: []policy.PageID{ids[0]}, Count: 1},
		storagetest.Rule{Corrupt: storage.CorruptChecksum, Pages: []policy.PageID{ids[1]}, Count: 1, Unrepairable: true},
	))
	buf := make([]byte, storage.PageSize)
	for _, id := range ids {
		if err := c.Write(ctx, id, buf); err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
	}
	// Repairable: clears, read succeeds afterwards.
	if err := c.RepairPage(ctx, ids[0]); err != nil {
		t.Fatalf("repair of repairable taint: %v", err)
	}
	if err := c.Read(ctx, ids[0], buf); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	// Unrepairable: RepairPage reports the corruption back, taint stays.
	if err := c.RepairPage(ctx, ids[1]); !storage.IsCorrupt(err) {
		t.Fatalf("repair of unrepairable taint: %v, want corrupt", err)
	}
	if err := c.Read(ctx, ids[1], buf); !storage.IsCorrupt(err) {
		t.Fatalf("read of unrepairable page: %v, want corrupt", err)
	}
	if s := c.Ledger(); s.Injected != 2 || s.Cleared != 1 || s.Tainted != 1 {
		t.Errorf("corrupt stats %+v, want injected=2 cleared=1 tainted=1", s)
	}
}

func TestCorruptMisdirectTaintsNeighbour(t *testing.T) {
	c, ids := injectorBackend(t, 2)
	c.SetPlan(storagetest.NewPlan(1, storagetest.Rule{
		Pages: []policy.PageID{ids[0]}, Corrupt: storage.CorruptMisdirect, Count: 1}))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The written page stays readable; its XOR-1 neighbour took the damage.
	if err := c.Read(ctx, ids[0], buf); err != nil {
		t.Fatalf("read of written page: %v", err)
	}
	err := c.Read(ctx, ids[0]^1, buf)
	ce, ok := storage.AsCorrupt(err)
	if !ok || ce.Kind != storage.CorruptMisdirect {
		t.Fatalf("read of neighbour: %v, want ErrCorrupt misdirect", err)
	}
}

// TestCorruptLedgerInvariant hammers a seeded plan and checks the wrapper's
// conservation law: every injection is either still tainting a page or was
// cleared, no double counting.
func TestCorruptLedgerInvariant(t *testing.T) {
	c, ids := injectorBackend(t, 8)
	c.SetPlan(storagetest.NewPlan(7, storagetest.Rule{Corrupt: storage.CorruptChecksum, Probability: 0.3}))
	buf := make([]byte, storage.PageSize)
	for i := 0; i < 500; i++ {
		id := ids[i%len(ids)]
		if i%3 == 0 {
			_ = c.Read(ctx, id, buf)
		} else if err := c.Write(ctx, id, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s := c.Ledger()
	if s.Injected == 0 {
		t.Fatal("plan with p=0.3 over 300+ writes injected nothing")
	}
	if s.Injected != s.Cleared+uint64(s.Tainted) {
		t.Errorf("ledger broken: injected=%d != cleared=%d + tainted=%d", s.Injected, s.Cleared, s.Tainted)
	}
	if got := len(c.TaintedPages()); got != s.Tainted {
		t.Errorf("TaintedPages len %d != stats.Tainted %d", got, s.Tainted)
	}
}

func TestCorruptErrorsPermanent(t *testing.T) {
	wrapped := &storage.ErrCorrupt{Page: 9, Kind: storage.CorruptTorn}
	if !storage.IsCorrupt(errWrap(errWrap(wrapped))) {
		t.Error("IsCorrupt must see through wrapping")
	}
}

func errWrap(err error) error { return &wrapErr{err} }

type wrapErr struct{ err error }

func (w *wrapErr) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }

// TestRepairPassesThroughWrappers: an injector passes RepairPage to the
// backend it wraps — over another injector it clears that one's taint —
// and over a backend that cannot repair (the simulator holds no rot of its
// own) it reports the page verified.
func TestRepairPassesThroughWrappers(t *testing.T) {
	base := sim.New(sim.ServiceModel{})
	corrupter := storagetest.Wrap(base)
	stack := storagetest.Wrap(corrupter)
	id := storagetest.MustAllocate(stack)
	buf := make([]byte, storage.PageSize)
	corrupter.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Corrupt: storage.CorruptChecksum, Count: 1}))
	if err := stack.Write(ctx, id, buf); err != nil {
		t.Fatal(err)
	}
	if err := stack.Read(ctx, id, buf); !storage.IsCorrupt(err) {
		t.Fatalf("read of a tainted page = %v, want ErrCorrupt", err)
	}
	if err := stack.RepairPage(ctx, id); err != nil {
		t.Fatalf("repair through the outer injector = %v, want nil", err)
	}
	if err := stack.Read(ctx, id, buf); err != nil {
		t.Fatalf("read after the repair = %v, want nil", err)
	}
	if err := storagetest.Wrap(base).RepairPage(ctx, id); err != nil {
		t.Errorf("repair of a clean page over the bare simulator = %v, want nil", err)
	}
}
