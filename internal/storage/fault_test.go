// The tests of storagetest's injector live beside the contract it wraps:
// each drives the injector over a real backend (the simulated disk, or the
// file store) through the storage.Backend interface.
package storage_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

var ctx = context.Background()

// injectorBackend wraps a fresh simulator in the injector and allocates
// the requested pages.
func injectorBackend(t *testing.T, pages int) (storagetest.Injector, []policy.PageID) {
	t.Helper()
	return injectorBackendModel(t, pages, sim.ServiceModel{})
}

func injectorBackendModel(t *testing.T, pages int, model sim.ServiceModel) (storagetest.Injector, []policy.PageID) {
	t.Helper()
	f := storagetest.Wrap(sim.New(model))
	ids := make([]policy.PageID, pages)
	for i := range ids {
		ids[i] = storagetest.MustAllocate(f)
	}
	return f, ids
}

func TestFaultCountAndAfter(t *testing.T) {
	m, ids := injectorBackend(t, 1)
	m.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, After: 2, Count: 3}))
	buf := make([]byte, storage.PageSize)
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, m.Write(ctx, ids[0], buf) != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("write %d faulted=%v, want %v (pattern %v)", i, got[i], want[i], got)
		}
	}
	// The rule is write-only: reads never fault.
	for i := 0; i < 8; i++ {
		if err := m.Read(ctx, ids[0], buf); err != nil {
			t.Fatalf("read %d faulted under a write-only rule: %v", i, err)
		}
	}
	if s, fs := m.Stats(), m.Ledger(); fs.WriteFaults != 3 || fs.ReadFaults != 0 || s.Writes != 5 || s.Reads != 8 {
		t.Errorf("stats %+v, faults %+v, want 3 write faults, 5 writes, 8 reads", s, fs)
	}
}

func TestFaultPerPage(t *testing.T) {
	m, ids := injectorBackend(t, 2)
	m.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Pages: []policy.PageID{ids[0]}}))
	buf := make([]byte, storage.PageSize)
	if err := m.Read(ctx, ids[0], buf); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Errorf("read of targeted page: %v, want ErrInjectedFault", err)
	}
	if err := m.Write(ctx, ids[0], buf); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Errorf("write of targeted page: %v, want ErrInjectedFault", err)
	}
	if err := m.Read(ctx, ids[1], buf); err != nil {
		t.Errorf("read of untargeted page faulted: %v", err)
	}
	if err := m.Write(ctx, ids[1], buf); err != nil {
		t.Errorf("write of untargeted page faulted: %v", err)
	}
}

func TestFaultCustomError(t *testing.T) {
	sentinel := errors.New("the head crashed")
	m, ids := injectorBackend(t, 1)
	m.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpRead, Err: sentinel}))
	buf := make([]byte, storage.PageSize)
	if err := m.Read(ctx, ids[0], buf); !errors.Is(err, sentinel) {
		t.Errorf("read error %v, want the rule's custom error", err)
	}
}

// TestFaultProbabilityDeterminism replays the same operation sequence
// against two backends with identically seeded plans: the fault pattern
// must match op for op. A different seed must (at this length) produce a
// different pattern.
func TestFaultProbabilityDeterminism(t *testing.T) {
	pattern := func(seed uint64) []bool {
		m, ids := injectorBackend(t, 8)
		m.SetPlan(storagetest.NewPlan(seed, storagetest.Rule{Probability: 0.3}))
		buf := make([]byte, storage.PageSize)
		var out []bool
		for i := 0; i < 200; i++ {
			id := ids[i%len(ids)]
			var err error
			if i%2 == 0 {
				err = m.Read(ctx, id, buf)
			} else {
				err = m.Write(ctx, id, buf)
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b, c := pattern(7), pattern(7), pattern(8)
	faults := 0
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: same seed diverged", i)
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] {
			faults++
		}
	}
	if same {
		t.Error("different seeds produced identical 200-op fault patterns")
	}
	// ~30% of 200 ops; generous bounds, just catching always/never.
	if faults < 20 || faults > 120 {
		t.Errorf("probability 0.3 injected %d/200 faults", faults)
	}
}

// TestFaultChargesServiceAndDelay pins the documented contract: a faulted
// operation transfers no data but still costs service time and still runs
// the simulator's Delay hook (so tests can park a doomed I/O like a
// successful one). This is the FaultCharger seam between the wrapper and
// the backend.
func TestFaultChargesServiceAndDelay(t *testing.T) {
	delays := 0
	m, ids := injectorBackendModel(t, 1, sim.ServiceModel{Delay: func(int64) { delays++ }})
	id := ids[0]
	buf := make([]byte, storage.PageSize)
	copy(buf, []byte("original"))
	if err := m.Write(ctx, id, buf); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	m.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite}))
	copy(buf, []byte("doomed!!"))
	if err := m.Write(ctx, id, buf); !errors.Is(err, storagetest.ErrInjectedFault) {
		t.Fatalf("write under always-fault rule: %v", err)
	}
	after := m.Stats()
	if after.ServiceMicros <= before.ServiceMicros {
		t.Error("faulted write charged no service time")
	}
	if delays != 2 {
		t.Errorf("Delay ran %d times, want 2 (one per write, faulted included)", delays)
	}
	if after.Writes != before.Writes {
		t.Error("faulted write counted in Stats.Writes")
	}
	// The page content is untouched by the faulted write.
	m.SetPlan(nil)
	got := make([]byte, storage.PageSize)
	if err := m.Read(ctx, id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:8]) != "original" {
		t.Errorf("faulted write mutated the page: %q", got[:8])
	}
}

// TestFaultRuleOrder checks that rules are consulted in declaration order
// and that an op is charged against every rule until one fires.
func TestFaultRuleOrder(t *testing.T) {
	first := errors.New("first")
	second := errors.New("second")
	m, ids := injectorBackend(t, 1)
	m.SetPlan(storagetest.NewPlan(1,
		storagetest.Rule{Op: storage.OpRead, Count: 1, Err: first},
		storagetest.Rule{Op: storage.OpRead, Count: 1, Err: second},
	))
	buf := make([]byte, storage.PageSize)
	if err := m.Read(ctx, ids[0], buf); !errors.Is(err, first) {
		t.Errorf("first read: %v, want first rule's error", err)
	}
	if err := m.Read(ctx, ids[0], buf); !errors.Is(err, second) {
		t.Errorf("second read: %v, want second rule's error", err)
	}
	if err := m.Read(ctx, ids[0], buf); err != nil {
		t.Errorf("third read: %v, want success (both rules exhausted)", err)
	}
}

func TestSetFaultsDisarms(t *testing.T) {
	m, ids := injectorBackend(t, 1)
	m.SetPlan(storagetest.NewPlan(1, storagetest.Rule{}))
	buf := make([]byte, storage.PageSize)
	if err := m.Read(ctx, ids[0], buf); err == nil {
		t.Fatal("armed plan did not fault")
	}
	m.SetPlan(nil)
	if err := m.Read(ctx, ids[0], buf); err != nil {
		t.Errorf("disarmed backend still faulted: %v", err)
	}
}

// TestFaultyIsDurableOnlyOverDurable: the injector forwards Recovery
// when, and only when, the backend it wraps is durable, so a plan over the
// file store leaves it durable and one over the simulated disk does not
// make the disk look durable.
func TestFaultyIsDurableOnlyOverDurable(t *testing.T) {
	if _, ok := storagetest.Wrap(sim.New(sim.ServiceModel{})).(storage.DurableBackend); ok {
		t.Error("the injector over the simulated disk is a DurableBackend")
	}
	store, err := file.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	d, ok := storagetest.Wrap(store).(storage.DurableBackend)
	if !ok {
		t.Fatal("the injector over the file store is not a DurableBackend")
	}
	if got, want := d.Recovery(), store.Recovery(); got != want {
		t.Errorf("Recovery() = %+v through the wrapper, %+v from the store", got, want)
	}
}

// TestFaultAndCorruptionInOnePlan arms one plan with a fault rule and a
// corruption rule, over the simulator and over the file store. The first
// write is faulted before it reaches the backend, so it neither lands nor
// taints; the second lands and taints its page, so the read is refused.
func TestFaultAndCorruptionInOnePlan(t *testing.T) {
	for _, c := range []struct {
		name  string
		inner func(t *testing.T) storage.Backend
	}{
		{"sim", func(*testing.T) storage.Backend { return sim.New(sim.ServiceModel{}) }},
		{"file", func(t *testing.T) storage.Backend {
			store, err := file.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			return store
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := storagetest.Wrap(c.inner(t))
			id := storagetest.MustAllocate(w)
			w.SetPlan(storagetest.NewPlan(1,
				storagetest.Rule{Op: storage.OpWrite, Count: 1},
				storagetest.Rule{Corrupt: storage.CorruptChecksum, Count: 1},
			))
			buf := make([]byte, storage.PageSize)
			if err := w.Write(ctx, id, buf); !errors.Is(err, storagetest.ErrInjectedFault) {
				t.Fatalf("first write = %v, want ErrInjectedFault", err)
			}
			if n, tainted := w.Stats().Writes, w.TaintedPages(); n != 0 || len(tainted) != 0 {
				t.Fatalf("faulted write reached the store (%d writes) or tainted %v", n, tainted)
			}
			if err := w.Write(ctx, id, buf); err != nil {
				t.Fatalf("second write = %v, want it to land", err)
			}
			if err := w.Read(ctx, id, buf); !storage.IsCorrupt(err) {
				t.Fatalf("read after the corrupting write = %v, want ErrCorrupt", err)
			}
			want := storagetest.Ledger{WriteFaults: 1, Injected: 1, Detected: 1, Tainted: 1}
			if got := w.Ledger(); got != want {
				t.Errorf("ledger %+v, want %+v", got, want)
			}
			if n := w.Stats().Writes; n != 1 {
				t.Errorf("store counted %d writes, want only the landed one", n)
			}
		})
	}
}
