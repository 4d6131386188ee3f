package storagetest_test

import (
	"context"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// TestMisdirectKeepsUnrepairableTaint lays an unrepairable taint on page p,
// then lands a repairable misdirected write (of p's XOR-1 neighbour) on p.
// The misdirect brings no copy of p back, so p stays unrepairable: a repair
// that cleared it would let a scrub heal a page a fetch had just poisoned.
func TestMisdirectKeepsUnrepairableTaint(t *testing.T) {
	ctx := context.Background()
	inj := storagetest.Wrap(sim.New(sim.ServiceModel{}))
	p, q := storagetest.MustAllocate(inj), storagetest.MustAllocate(inj)
	if q != p^1 {
		t.Fatalf("pages %d and %d are not XOR-1 neighbours", p, q)
	}
	inj.SetPlan(storagetest.NewPlan(1,
		storagetest.Rule{Corrupt: storage.CorruptChecksum, Pages: []policy.PageID{p}, Count: 1, Unrepairable: true},
		storagetest.Rule{Corrupt: storage.CorruptMisdirect, Pages: []policy.PageID{q}, Count: 1},
	))
	buf := make([]byte, storage.PageSize)
	for _, id := range []policy.PageID{p, q} {
		if err := inj.Write(ctx, id, buf); err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
	}
	if err := inj.RepairPage(ctx, p); !storage.IsCorrupt(err) {
		t.Fatalf("repair of page %d = %v, want ErrCorrupt: the misdirect weakened its unrepairable taint", p, err)
	}
	err := inj.Read(ctx, p, buf)
	if ce, ok := storage.AsCorrupt(err); !ok || ce.Kind != storage.CorruptChecksum {
		t.Errorf("read of page %d = %v, want the unrepairable checksum taint", p, err)
	}
	if err := inj.Read(ctx, q, buf); err != nil {
		t.Errorf("read of the misdirected page %d = %v, want clean", q, err)
	}
	if l := inj.Ledger(); l.Injected != 1 || l.Tainted != 1 || l.Cleared != 0 {
		t.Errorf("ledger %+v, want injected=1 tainted=1 cleared=0", l)
	}
}
