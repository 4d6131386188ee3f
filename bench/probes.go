package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heapfile"
	"repro/internal/policy"
	"repro/internal/server/wire"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

// The probes are short isolated loops over one layer's public API, on state
// shaped like the workloads (404 frames, 2 KB records, a 300-customer hot
// set, ~10k history blocks). This is the one file that constructs layers
// below db directly, the way db.Open does; when a layer's constructor
// changes, this is where the benchmark follows.

// probeDivisor shrinks every probe loop and the K replays; the smoke test
// raises it.
var probeDivisor = 1

// probeN is a probe's iteration count.
func probeN(n int) int { return max(n/probeDivisor, 10) }

// timeLoop returns the mean nanoseconds of n calls of f.
func timeLoop(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// runProbes fills in every probe-sourced metric.
func runProbes(def *workloadDef, m map[string]float64) error {
	probeWire(m)
	probeRing(m)
	probeCore(m)
	probeWrappers(m)
	if err := probePoolStack(m); err != nil {
		return err
	}
	if def.Durable {
		return probeFileStore(def, m)
	}
	return nil
}

// sinkErr keeps the probed calls' results alive so the compiler cannot drop
// the calls.
var sinkErr error

// probeWire is one GET's worth of codec work: request out and in, a 2 KB
// response out and in, with reused buffers as a zero-alloc codec would be
// driven.
func probeWire(m map[string]float64) {
	n := probeN(100000)
	rec := make([]byte, recordSize)
	reqBuf := make([]byte, 0, 64)
	respBuf := make([]byte, 0, recordSize+16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m["wire.get_codec_ns"] = timeLoop(n, func(i int) {
		reqBuf = wire.AppendRequest(reqBuf[:0], wire.Request{Op: wire.OpGet, CustID: int64(i)})
		req, err := wire.DecodeRequest(reqBuf)
		if err != nil || req.CustID != int64(i) {
			panic(fmt.Sprintf("bench: request codec round trip broke: %v", err))
		}
		respBuf = wire.AppendResponse(respBuf[:0], wire.Response{Status: wire.StatusOK, Body: rec})
		resp, err := wire.DecodeResponse(respBuf)
		if err != nil || len(resp.Body) != recordSize {
			panic(fmt.Sprintf("bench: response codec round trip broke: %v", err))
		}
	})
	runtime.ReadMemStats(&after)
	m["wire.get_codec_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(n)
}

func probeRing(m map[string]float64) {
	ring := cluster.NewRing(wire.View{Epoch: 1, Nodes: []wire.NodeAddr{
		{ID: "n0", Addr: "a"}, {ID: "n1", Addr: "b"}, {ID: "n2", Addr: "c"}}})
	owners := 0
	m["cluster.ring_owner_ns"] = timeLoop(probeN(500000), func(i int) {
		if ring.Owner(int64(i)) != "" {
			owners++
		}
	})
	if owners == 0 {
		panic("bench: ring owns nothing")
	}
}

// probeCore drives the replacer db.Open builds into the two-pool workload's
// steady state — 404 evictable resident pages, ~10k history blocks — then
// times a reference to a resident page, and an eviction plus the admission
// that follows it.
func probeCore(m map[string]float64) {
	const pages = 10000
	repl := core.NewSyncReplacer(2, core.Options{})
	admit := func(p policy.PageID) {
		repl.RecordAccess(p)
		repl.SetEvictable(p, true)
	}
	// absent is a FIFO of non-resident pages with history: the next page to
	// admit comes off its front, each victim joins its back.
	absent := make([]policy.PageID, 0, pages)
	resident := map[policy.PageID]bool{}
	for p := policy.PageID(0); p < pages; p++ {
		admit(p)
		resident[p] = true
		if len(resident) > frames {
			v, ok := repl.Evict()
			if !ok {
				panic("bench: replacer has nothing to evict")
			}
			delete(resident, v)
			absent = append(absent, v)
		}
	}
	hot := make([]policy.PageID, 0, frames)
	for p := range resident {
		hot = append(hot, p)
	}
	m["core.record_access_ns"] = timeLoop(probeN(300000), func(i int) { repl.RecordAccess(hot[i%len(hot)]) })
	head := 0
	m["core.evict_ns"] = timeLoop(probeN(100000), func(int) {
		v, _ := repl.Evict()
		admit(absent[head])
		absent[head] = v
		if head++; head == len(absent) {
			head = 0
		}
	})
}

// nopBackend is a storage.Backend whose Read and Write do nothing, so a
// stack of wrappers over it costs only the wrappers.
type nopBackend struct{}

func (nopBackend) Read(context.Context, policy.PageID, []byte) error  { return nil }
func (nopBackend) Write(context.Context, policy.PageID, []byte) error { return nil }
func (nopBackend) Allocate() (policy.PageID, error)                   { return 0, nil }
func (nopBackend) Deallocate(policy.PageID) error                     { return nil }
func (nopBackend) Flush(context.Context) error                        { return nil }
func (nopBackend) Stats() storage.Stats                               { return storage.Stats{} }
func (nopBackend) StripeOf(policy.PageID) int                         { return 0 }
func (nopBackend) NumStripes() int                                    { return 1 }
func (nopBackend) NumPages() int                                      { return 0 }
func (nopBackend) Close() error                                       { return nil }

// probeWrappers prices the disarmed faults->corruption stack db.Open puts
// over every backend.
func probeWrappers(m map[string]float64) {
	n := probeN(1000000)
	ctx := context.Background()
	buf := make([]byte, storage.PageSize)
	var bare storage.Backend = nopBackend{}
	var stack storage.Backend = storage.WithFaults(storage.WithCorruption(nopBackend{}))
	base := timeLoop(n, func(i int) { sinkErr = bare.Read(ctx, policy.PageID(i), buf) })
	wrapped := timeLoop(n, func(i int) { sinkErr = stack.Read(ctx, policy.PageID(i), buf) })
	m["storage.wrapper_overhead_ns"] = wrapped - base
}

// probePoolStack assembles pool + heap file + B-tree over a sim backend as
// db.Open does, loads 10,000 customers, and times each layer's read path.
func probePoolStack(m map[string]float64) error {
	const customers, hotCustomers = 10000, 300
	ctx := context.Background()
	pool := bufferpool.New(sim.New(sim.ServiceModel{}), frames, core.NewSyncReplacer(2, core.Options{}))
	defer pool.Close()
	heap := heapfile.New(pool)
	tree, err := btree.New(pool)
	if err != nil {
		return err
	}
	rids := make([]heapfile.RID, customers)
	rec := make([]byte, recordSize)
	for id := range rids {
		binary.LittleEndian.PutUint64(rec, uint64(id))
		if rids[id], err = heap.Insert(rec); err != nil {
			return err
		}
		if err := tree.Insert(int64(id), rids[id]); err != nil {
			return err
		}
	}
	if err := pool.FlushAll(); err != nil {
		return err
	}
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	m["btree.get_ns"] = timeLoop(probeN(200000), func(i int) {
		_, ok, err := tree.GetCtx(ctx, int64(i%hotCustomers))
		if err == nil && !ok {
			err = fmt.Errorf("bench: btree lost key %d", i%hotCustomers)
		}
		note(err)
	})
	m["heapfile.get_ns"] = timeLoop(probeN(200000), func(i int) {
		got, err := heap.GetCtx(ctx, rids[i%hotCustomers])
		if err == nil && len(got) != recordSize {
			err = fmt.Errorf("bench: heap file returned %d bytes", len(got))
		}
		note(err)
	})
	fetch := func(id policy.PageID) {
		pg, err := pool.FetchCtx(ctx, id)
		if err != nil {
			note(err)
			return
		}
		pg.Unpin(false)
	}
	m["bufferpool.hit_ns"] = timeLoop(probeN(300000), func(i int) { fetch(rids[i%hotCustomers].Page) })
	// Sweep the 5,000 data pages through the 404 frames, stepping over the
	// few the replacer chose to keep (the residency check is ~1 % of a miss).
	data := heap.Pages()
	before := pool.Stats()
	sweeps := probeN(30000)
	cursor := 0
	m["bufferpool.miss_ns"] = timeLoop(sweeps, func(int) {
		for pool.Resident(data[cursor%len(data)]) {
			cursor++
		}
		fetch(data[cursor%len(data)])
		cursor++
	})
	if missed := pool.Stats().Misses - before.Misses; probeErr == nil && missed != uint64(sweeps) {
		probeErr = fmt.Errorf("bench: miss probe saw %d misses in %d fetches", missed, sweeps)
	}
	return probeErr
}

// probeFileStore times the durable store's single-page write (WAL append,
// slot write, fsync) and verified read in a scratch directory.
func probeFileStore(def *workloadDef, m map[string]float64) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("out", "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := file.OpenConfig(dir, def.storeConfig())
	if err != nil {
		return err
	}
	defer st.Close()
	p, err := st.Allocate()
	if err != nil {
		return err
	}
	ctx := context.Background()
	buf := make([]byte, storage.PageSize)
	var probeErr error
	m["storage_file.write_us"] = timeLoop(probeN(200), func(i int) {
		buf[0] = byte(i)
		if err := st.Write(ctx, p, buf); err != nil && probeErr == nil {
			probeErr = err
		}
	}) / 1e3
	m["storage_file.read_us"] = timeLoop(probeN(5000), func(int) {
		if err := st.Read(ctx, p, buf); err != nil && probeErr == nil {
			probeErr = err
		}
	}) / 1e3
	return probeErr
}
