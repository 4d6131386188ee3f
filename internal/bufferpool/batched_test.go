package bufferpool

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// batchedTraceOptions enables both §2.1 periods, so the differential traces
// below exercise correlated-reference collapse and the retention purge
// through the batched drain path, not just plain touches.
var batchedTraceOptions = core.Options{
	CorrelatedReferencePeriod: 3,
	RetainedInformationPeriod: 200,
}

// batchedTraceStep is one scripted operation of the differential traces.
type batchedTraceStep struct {
	id    policy.PageID
	dirty bool
	flush bool
}

func batchedTraceScript(pages, refs int) []batchedTraceStep {
	r := stats.NewRNG(11)
	script := make([]batchedTraceStep, refs)
	for i := range script {
		var id policy.PageID
		if i%2 == 0 {
			id = policy.PageID(r.Intn(40)) // hot set
		} else {
			id = policy.PageID(40 + r.Intn(pages-40))
		}
		script[i] = batchedTraceStep{id: id, dirty: i%7 == 6, flush: i%997 == 996}
	}
	return script
}

// TestBatchedPoolMatchesSerialOnDeterministicTrace replays one deterministic
// single-threaded trace through the Serial reference pool on a plain
// core.Replacer and through the concurrent Pool on core.SyncReplacer, over
// both storage backends. After a final drain, every pool counter and every
// policy counter must agree exactly: a reference's tick is its arrival
// order and the table replays the event ring's exact FIFO, so buffering
// must be observationally invisible on a serialisable history — including
// the correlated-reference collapses and retention purges the enabled §2.1
// periods produce.
func TestBatchedPoolMatchesSerialOnDeterministicTrace(t *testing.T) {
	const (
		frames = 50
		pages  = 800
		refs   = 40000
	)
	script := batchedTraceScript(pages, refs)

	type outcome struct {
		pool   Stats
		policy core.PolicyStats
	}
	run := func(t *testing.T, open func() storage.Backend, build func(storage.Backend) (fetcherPool, func() core.PolicyStats)) outcome {
		d := open()
		for i := 0; i < pages; i++ {
			storagetest.MustAllocate(d)
		}
		p, policyStats := build(d)
		for _, st := range script {
			pg, err := p.Fetch(st.id)
			if err != nil {
				t.Fatal(err)
			}
			if st.dirty {
				pg.Data()[0]++
			}
			pg.Unpin(st.dirty)
			if st.flush {
				if err := p.FlushPage(st.id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		// policyStats drains any still-buffered events (SyncReplacer
		// flushes on every stats read), so the comparison below is over
		// fully-reconciled state.
		return outcome{p.PoolStats(), policyStats()}
	}

	backends := []struct {
		name string
		open func() storage.Backend
	}{
		{"sim", func() storage.Backend { return sim.New(sim.ServiceModel{}) }},
		{"file", func() storage.Backend {
			s, err := file.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			want := run(t, be.open, func(d storage.Backend) (fetcherPool, func() core.PolicyStats) {
				r := core.NewReplacer(2, batchedTraceOptions)
				return serialFetcher{NewSerial(d, frames, r)}, r.PolicyStats
			})
			got := run(t, be.open, func(d storage.Backend) (fetcherPool, func() core.PolicyStats) {
				r := core.NewSyncReplacer(2, batchedTraceOptions)
				return poolFetcher{New(d, frames, r)}, r.PolicyStats
			})
			if got.pool != want.pool {
				t.Errorf("pool stats %+v, want serial %+v", got.pool, want.pool)
			}
			if got.policy != want.policy {
				t.Errorf("policy stats %+v, want serial %+v", got.policy, want.policy)
			}
			if got.policy.Collapses == 0 || got.policy.Purges == 0 {
				t.Errorf("trace did not exercise collapse+purge paths: %+v", got.policy)
			}
		})
	}
}

// fetcherPool is the slice of the Serial/Pool surface the differential
// traces need, plus a uniform stats accessor.
type fetcherPool interface {
	Fetch(id policy.PageID) (pageHandle, error)
	FlushPage(id policy.PageID) error
	FlushAll() error
	PoolStats() Stats
}

type pageHandle interface {
	Data() []byte
	Unpin(dirty bool)
}

type serialFetcher struct{ p *Serial }

func (s serialFetcher) Fetch(id policy.PageID) (pageHandle, error) {
	pg, err := s.p.Fetch(id)
	if err != nil {
		return nil, err
	}
	return pg, nil
}
func (s serialFetcher) FlushPage(id policy.PageID) error { return s.p.FlushPage(id) }
func (s serialFetcher) FlushAll() error                  { return s.p.FlushAll() }
func (s serialFetcher) PoolStats() Stats                 { return s.p.Stats() }

type poolFetcher struct{ p *Pool }

func (s poolFetcher) Fetch(id policy.PageID) (pageHandle, error) {
	pg, err := s.p.FetchCtx(context.Background(), id)
	if err != nil {
		return nil, err
	}
	return &pg, nil
}
func (s poolFetcher) FlushPage(id policy.PageID) error {
	return flushPage(context.Background(), s.p, id)
}
func (s poolFetcher) FlushAll() error  { return s.p.FlushAll() }
func (s poolFetcher) PoolStats() Stats { return s.p.Stats() }

// TestFastHitProbe pins down the latch-free hit path: once a page has been
// fetched into the slot its id indexes, a repeat fetch must be
// served by the lock-free probe (FastHits advances) with ordinary hit
// accounting, and eviction must invalidate the published frame so the
// probe cannot resurrect a page the pool evicted.
func TestFastHitProbe(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	var ids []policy.PageID
	for i := 0; i < 8; i++ {
		ids = append(ids, storagetest.MustAllocate(d))
	}
	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))

	warm := func(id policy.PageID) {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}
	warm(ids[0])
	if got := p.FastHits(); got != 0 {
		t.Fatalf("cold fetch counted %d fast hits, want 0", got)
	}
	warm(ids[0])
	if got := p.FastHits(); got != 1 {
		t.Fatalf("repeat fetch counted %d fast hits, want 1 (probe missed)", got)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", s)
	}

	// Evict ids[0] by filling the pool, then fetch it again: the probe must
	// not serve the stale frame (its epoch advanced and the page moved on).
	for _, id := range ids[1:] {
		warm(id)
	}
	pg, err := p.FetchCtx(context.Background(), ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.Data(); got == nil {
		t.Fatal("nil data from re-fetched page")
	}
	pg.Unpin(false)
	s = p.Stats()
	if s.Evictions == 0 {
		t.Fatalf("fill did not evict: %+v", s)
	}
	if s.Hits+s.Misses != uint64(len(ids)+2) {
		t.Fatalf("accounting drifted: %+v over %d fetches", s, len(ids)+2)
	}
}

// TestProbeShareOfResidentHits measures the latch-free probe's share of
// hits, FastHits()/Stats().Hits, on a uniform stream over a fully resident
// 404-frame pool (the benchmark's frame count). Every reference after the
// warm-up is a hit, and the page-state array gives every page a slot of its
// own, so the probe serves all of them: with nothing racing it, a hit the
// latched path serves is a bug.
func TestProbeShareOfResidentHits(t *testing.T) {
	const (
		frames   = 404
		refs     = 200000
		minShare = 0.999
	)
	d := sim.New(sim.ServiceModel{})
	ids := make([]policy.PageID, frames)
	for i := range ids {
		ids[i] = storagetest.MustAllocate(d)
	}
	p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))
	fetch := func(id policy.PageID) {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}
	for _, id := range ids {
		fetch(id)
	}
	r := stats.NewRNG(1)
	for i := 0; i < refs; i++ {
		fetch(ids[r.Intn(frames)])
	}
	s := p.Stats()
	if s.Misses != frames || s.Hits != refs {
		t.Fatalf("stats %+v, want %d misses and %d hits", s, frames, refs)
	}
	share := float64(p.FastHits()) / float64(s.Hits)
	t.Logf("probe share %.4f (%d of %d hits)", share, p.FastHits(), s.Hits)
	if share < minShare {
		t.Errorf("probe served %.4f of resident hits, want at least %.4f", share, minShare)
	}
}

// TestBatchedRestoreAfterFailedWriteback drives the satellite regression:
// a dirty victim whose write-back fails is restored while the event ring
// still holds undrained events for it. The restore must reinstate
// the existing HIST block — never fabricate a phantom one — and the
// pool/replacer state must stay consistent enough for the page to be
// fetched, flushed and evicted normally once the fault clears.
func TestBatchedRestoreAfterFailedWriteback(t *testing.T) {
	d := storagetest.Wrap(sim.New(sim.ServiceModel{}))
	const frames = 4
	var ids []policy.PageID
	for i := 0; i < frames+2; i++ {
		ids = append(ids, storagetest.MustAllocate(d))
	}
	victim := ids[0]
	p := New(d, frames, core.NewSyncReplacer(2, core.Options{RetainedInformationPeriod: 100}))

	// Dirty the victim-to-be and fill the rest of the pool.
	pg, err := p.FetchCtx(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data()[0] = 0xAB
	pg.Unpin(true)
	for _, id := range ids[1:frames] {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}

	// Every write to the victim fails: the eviction sweep claims it (its
	// buffered events flush during the eviction search), fails the
	// write-back, restores it, and takes a clean page instead.
	d.SetPlan(storagetest.NewPlan(1, storagetest.Rule{Op: storage.OpWrite, Pages: []policy.PageID{victim}}))
	pg, err = p.FetchCtx(context.Background(), ids[frames])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	s := p.Stats()
	if s.WriteErrors == 0 {
		t.Fatalf("eviction did not fail the victim's write-back: %+v", s)
	}

	// The restored page must still be resident with its dirty data intact.
	pg, err = p.FetchCtx(context.Background(), victim)
	if err != nil {
		t.Fatalf("restored victim not fetchable: %v", err)
	}
	if pg.Data()[0] != 0xAB {
		t.Fatalf("restored victim lost its in-memory update: %x", pg.Data()[0])
	}
	pg.Unpin(false)
	if hits := p.Stats().Hits; hits == 0 {
		t.Error("re-fetch of restored victim was not a hit (phantom eviction)")
	}

	// Heal the disk; the page must flush and then evict normally.
	d.SetPlan(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("flush after healing: %v", err)
	}
	for _, id := range ids[1:] {
		pg, err := p.FetchCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
