package sim

import (
	"context"
	"fmt"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/policy"
	simdisk "repro/internal/storage/sim"
)

// PoolResult reports a reference-string replay through the full buffer-pool
// stack (pool + replacer + simulated disk) rather than a bare policy: hit
// ratio plus the physical I/O consequences the paper's cost/performance
// argument is ultimately about.
type PoolResult struct {
	Result
	DiskReads     uint64
	WriteBacks    uint64
	ServiceMicros int64
}

// RunPool replays the experiment's trace through a buffer pool of the
// given frame count using an LRU-K replacer of depth k, touching every
// referenced page once per reference (fetch, optionally dirty, unpin).
// dirtyEvery > 0 marks every n-th reference as a write, exercising
// write-back I/O. The universe of pages is allocated densely up front.
//
// The replay is single-threaded through the concurrent pool on the one
// concurrent replacer (core.SyncReplacer: one HIST table, one global
// victim order), so hit/miss/eviction accounting is bit-for-bit the
// single-latch pool's; the latch partition count cannot influence
// replacement decisions.
func (e *Experiment) RunPool(frames, k int, opts core.Options, dirtyEvery int) (PoolResult, error) {
	maxPage := policy.PageID(-1)
	for _, p := range e.Trace {
		if p > maxPage {
			maxPage = p
		}
	}
	d := simdisk.New(simdisk.ServiceModel{})
	for i := policy.PageID(0); i <= maxPage; i++ {
		d.Allocate()
	}
	pool := bufferpool.NewWithConfig(d, frames,
		core.NewSyncReplacer(k, opts), bufferpool.Config{})
	res := PoolResult{Result: Result{
		Policy:     fmt.Sprintf("pool/LRU-%d", k),
		Buffer:     frames,
		Measured:   len(e.Trace) - e.Warmup,
		WarmupRefs: e.Warmup,
	}}
	loadReads := d.Stats().Reads
	for i, p := range e.Trace {
		before := pool.Stats().Hits
		pg, err := pool.FetchCtx(context.Background(), p)
		if err != nil {
			return res, fmt.Errorf("sim: pool replay at ref %d: %w", i, err)
		}
		dirty := dirtyEvery > 0 && i%dirtyEvery == dirtyEvery-1
		if dirty {
			pg.Data()[0]++
		}
		pg.Unpin(dirty)
		if i >= e.Warmup && pool.Stats().Hits > before {
			res.Hits++
		}
	}
	st := d.Stats()
	res.DiskReads = st.Reads - loadReads
	res.WriteBacks = pool.Stats().WriteBacks
	res.ServiceMicros = st.ServiceMicros
	return res, nil
}
