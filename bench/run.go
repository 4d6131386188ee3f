package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/storage/file"
)

// runConfig is one invocation: a workload, the seed its inputs derive from,
// the measured length, and whether this is the traced (per-layer) run.
type runConfig struct {
	def     *workloadDef
	seed    uint64
	seconds float64
	traced  bool
	log     io.Writer // progress and the human-readable table
}

// result is what a run reports.
type result struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	correct   bool
}

// benchClient is one closed-loop caller: it issues its next operation only
// after the previous one returned.
type benchClient struct {
	id  int
	ops []Op
	pos int
	// get and upd are the window's latencies; fixed memory, reset per window.
	get, upd Hist
	// expected is the last acknowledged fill per customer. The slice is
	// shared, but clients touch disjoint customers (keys.go).
	expected  []byte
	attempted uint64
	failed    uint64
	updates   uint64 // acknowledged
	firstErr  error
	truncated bool
	// spans, when non-nil, takes the window's root spans until full.
	spans []windowSpan
}

// checkRecord is the correctness gate on every GET reply: length, CUST-ID,
// and the first and last filler byte equal to the last acknowledged update.
func checkRecord(rec []byte, cust int64, fill byte) error {
	if len(rec) != recordSize {
		return fmt.Errorf("customer %d: record is %d bytes, want %d", cust, len(rec), recordSize)
	}
	if id := int64(binary.LittleEndian.Uint64(rec)); id != cust {
		return fmt.Errorf("customer %d: record carries id %d", cust, id)
	}
	if rec[8] != fill || rec[recordSize-1] != fill {
		return fmt.Errorf("customer %d: fill %#x..%#x, want %#x", cust, rec[8], rec[recordSize-1], fill)
	}
	return nil
}

// entry is the pair of calls one layer of the stack is entered through.
type entry struct {
	get    func(ctx context.Context, cust int64) ([]byte, error)
	update func(ctx context.Context, cust int64, fill byte) error
}

// do issues one operation through e and checks the outcome.
func (b *benchClient) do(ctx context.Context, op Op, e *entry) {
	cust := op.Cust()
	b.attempted++
	var err error
	if fill := op.Fill(); fill != 0 {
		if err = e.update(ctx, cust, fill); err == nil {
			b.expected[cust] = fill
			b.updates++
		}
	} else {
		var rec []byte
		if rec, err = e.get(ctx, cust); err == nil {
			err = checkRecord(rec, cust, b.expected[cust])
		}
	}
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
	}
}

// next takes the next op off the client's stream, cycling at its end.
func (b *benchClient) next() Op {
	op := b.ops[b.pos]
	if b.pos++; b.pos == len(b.ops) {
		b.pos = 0
	}
	return op
}

// run is the timed loop: n operations from the client's stream, or fewer if
// the window's time cap passes first. It allocates nothing itself; an
// operation's latency runs from the previous reply to its own.
func (b *benchClient) run(ctx context.Context, e *entry, n int, deadline time.Time) {
	last := time.Now()
	for i := 0; i < n; i++ {
		op := b.next()
		b.do(ctx, op, e)
		now := time.Now()
		update := op.Fill() != 0
		if update {
			b.upd.Record(now.Sub(last).Nanoseconds())
		} else {
			b.get.Record(now.Sub(last).Nanoseconds())
		}
		if b.spans != nil && len(b.spans) < cap(b.spans) {
			b.spans = append(b.spans, windowSpan{last, now, update})
		}
		if now.After(deadline) {
			b.truncated = true
			return
		}
		last = now
	}
}

// counter indexes the boundary counters read at every window edge.
type counter int

const (
	cMallocs counter = iota
	cAllocBytes
	cGCPauseNs
	cGCCycles
	cCPUNs
	cHits
	cMisses
	cEvictions
	cWriteBacks
	cCoalesced
	cReads
	cWrites
	cWALAppends
	cWALSyncs
	cCheckpoints
	cPolicyEvictions
	cCollapses
	cSrvRequests
	cSrvShed
	cStorageBusyNs
	cClusterSent  // requests the cluster client sent, any outcome
	cClusterMoved // of those, answered MOVED
	cNodeOK       // first of one slot per node: requests it served
	numCounters   = cNodeOK + 3
)

type counters [numCounters]uint64

func (c *counters) add(o *counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c *counters) sub(o *counters) {
	for i := range c {
		c[i] -= o[i]
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readCounters reads every layer's public counters (summed over the nodes),
// the tracer's storage busy time, and last — so the reads' own allocations
// stay outside a window's delta — the runtime's.
func (r *runner) readCounters(closing bool) counters {
	var c counters
	var ms runtime.MemStats
	if closing {
		c[cCPUNs] = uint64(cpuTime())
		runtime.ReadMemStats(&ms)
	}
	var served map[string]cluster.NodeCounters
	if r.sys.cluster != nil {
		served = r.sys.cluster.Counters()
	}
	for i, n := range r.sys.nodes {
		st := n.db.StatsSnapshot()
		c[cHits] += st.Pool.Hits
		c[cMisses] += st.Pool.Misses
		c[cEvictions] += st.Pool.Evictions
		c[cWriteBacks] += st.Pool.WriteBacks
		c[cCoalesced] += st.Pool.Coalesced
		c[cReads] += st.Disk.Reads
		c[cWrites] += st.Disk.Writes
		c[cWALAppends] += st.Disk.WALAppends
		c[cWALSyncs] += st.Disk.WALSyncs
		c[cCheckpoints] += st.Disk.Checkpoints
		c[cPolicyEvictions] += st.Policy.Evictions
		c[cCollapses] += st.Policy.Collapses
		if n.srv != nil {
			ss := n.srv.Stats()
			c[cSrvRequests] += ss.Requests
			c[cSrvShed] += ss.Shed
		}
		if nc, ok := served[n.id]; ok {
			c[cClusterSent] += nc.OK + nc.Busy + nc.Unavailable + nc.Moved + nc.Transport + nc.Err
			c[cClusterMoved] += nc.Moved
			c[cNodeOK+counter(i)] = nc.OK
		}
	}
	if r.tr != nil {
		c[cStorageBusyNs] = uint64(r.tr.busy())
	}
	if !closing {
		runtime.ReadMemStats(&ms)
		c[cCPUNs] = uint64(cpuTime())
	}
	c[cMallocs], c[cAllocBytes] = ms.Mallocs, ms.TotalAlloc
	c[cGCPauseNs], c[cGCCycles] = ms.PauseTotalNs, uint64(ms.NumGC)
	return c
}

// windowStats is one window's measurements (or the sum of several).
type windowStats struct {
	wall     time.Duration
	ops      uint64
	updates  uint64
	get, upd Hist
	delta    counters
}

func (w *windowStats) throughput() float64 { return float64(w.ops) / w.wall.Seconds() }

func (w *windowStats) add(o *windowStats) {
	w.wall += o.wall
	w.ops += o.ops
	w.updates += o.updates
	w.get.Merge(&o.get)
	w.upd.Merge(&o.upd)
	w.delta.add(&o.delta)
}

// perOp divides a counter's delta by the ops done.
func (w *windowStats) perOp(c counter) float64 { return ratio(w.delta[c], w.ops) }

// runner carries one run's state across its phases.
type runner struct {
	cfg     runConfig
	sys     *system
	tr      *tracer // traced run only
	clients []*benchClient
	// windowOps is the frozen per-client op count of one window.
	windowOps int
	windowCap time.Duration
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, format+"\n", args...)
}

// newRunner sizes the windows from -seconds and the workload's frozen rate.
func newRunner(cfg runConfig) *runner {
	r := &runner{cfg: cfg}
	window := cfg.seconds / measuredWindows
	if cfg.traced {
		// The traced run's windows are half-length: per-layer metrics carry
		// no bound, and the ladder and probes need the time.
		window /= 2
	}
	r.windowOps = int(float64(cfg.def.OpsPerSec) * window)
	if r.windowOps < 50 {
		r.windowOps = 50
	}
	// A window that runs this far past its calibrated length ends early
	// instead of running the benchmark into the driver's time limit.
	r.windowCap = time.Duration(window*2*float64(time.Second)) + 5*time.Second
	return r
}

// makeClients pre-generates each client's stream of n ops from the seed;
// a workload that allows cycling caps it.
func (r *runner) makeClients(n int) {
	if c := r.cfg.def.StreamCap; c > 0 && n > c {
		n = c
	}
	expected := make([]byte, r.cfg.def.Customers)
	r.clients = nil
	for c := 0; c < numClients; c++ {
		r.clients = append(r.clients, &benchClient{
			id:       c,
			ops:      r.cfg.def.Stream(r.cfg.seed, c, n),
			expected: expected,
		})
	}
}

// window runs one window on both clients. Everything but the clients'
// loops happens outside the clock; spanCap > 0 records that many root spans
// per client.
func (r *runner) window(spanCap int) *windowStats {
	w := &windowStats{}
	var opsBefore, updBefore uint64
	for _, c := range r.clients {
		c.get.Reset()
		c.upd.Reset()
		c.spans = nil
		if spanCap > 0 {
			c.spans = make([]windowSpan, 0, spanCap)
		}
		opsBefore += c.attempted
		updBefore += c.updates
	}
	runtime.GC()
	pre := r.readCounters(false)

	ctx := context.Background()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *benchClient) {
			defer wg.Done()
			e := r.sys.entry(c.id)
			<-start
			c.run(ctx, e, r.windowOps, time.Now().Add(r.windowCap))
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	w.wall = time.Since(t0)

	w.delta = r.readCounters(true)
	w.delta.sub(&pre)
	// The per-node served counts are only used as deltas too, so the
	// subtraction above is right for them as well.
	for _, c := range r.clients {
		w.ops += c.attempted
		w.updates += c.updates
		w.get.Merge(&c.get)
		w.upd.Merge(&c.upd)
		if c.truncated {
			r.logf("  note: client %d hit the window's %.0f s time cap; the window is shorter than its frozen op count", c.id, r.windowCap.Seconds())
			c.truncated = false
		}
		if r.tr != nil {
			r.tr.addWindowSpans(c.spans)
		}
		c.spans = nil
	}
	w.ops -= opsBefore
	w.updates -= updBefore
	return w
}

// tally sums the clients' op and failure counts into res.
func (r *runner) tally(res *result) {
	for _, c := range r.clients {
		res.attempted += c.attempted
		res.failed += c.failed
		if c.firstErr != nil {
			r.logf("  client %d first failure: %v", c.id, c.firstErr)
		}
	}
	res.correct = res.failed == 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

// runUntraced is the end-to-end run: set-up (several times, for setup_s),
// one discarded warm-up window, the measured windows, teardown. The two
// times it reports are the lowest of their repeats, not the median: the
// shared host's interference only ever adds time, and between a quiet and a
// noisy quarter-hour the medians drifted 15-25 % where the lowest values
// stayed within 2-5 %.
func runUntraced(cfg runConfig) (*result, error) {
	r := newRunner(cfg)
	res := &result{metrics: map[string]float64{}}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r.sys != nil {
			r.sys.close()
			r.sys = nil
			// Collect the discarded instance before the next one allocates, so
			// rss_peak_mb is one instance's, not two — but keep the heap
			// mapped: re-faulting 20-60 MB of pages from the hypervisor was
			// the noisiest part of a 60-200 ms set-up.
			runtime.GC()
		}
		t0 := time.Now()
		sys, err := setupSystem(cfg.def, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.sys = sys
	}
	defer func() { r.sys.close() }()
	r.makeClients((1 + measuredWindows) * r.windowOps)

	r.window(0) // warm-up, discarded
	var p10 []float64
	var total windowStats
	for i := 0; i < measuredWindows; i++ {
		w := r.window(0)
		p10 = append(p10, w.get.Quantile(0.10)/1e3)
		total.add(w)
		r.logf("  window %d: %.2f s  %.0f ops/s  get p10 %.2f us  p50 %.2f us  p95 %.2f us  (%d GET samples)", i+1,
			w.wall.Seconds(), w.throughput(), p10[i], w.get.Quantile(0.50)/1e3, w.get.Quantile(0.95)/1e3, w.get.Count())
	}
	r.tally(res)
	// Read before the teardown: the durable reopen replays a WAL whose
	// length depends on where the last checkpoint fell.
	rss := rssPeakMB()
	if cfg.def.Durable {
		if _, err := r.verifyDurable(); err != nil {
			r.logf("  durability check FAILED: %v", err)
			res.correct = false
		}
	}

	m := res.metrics
	m["setup_s"] = slices.Min(setups)
	m["get_p10_us"] = slices.Min(p10)
	m["hit_ratio"] = ratio(total.delta[cHits], total.delta[cHits]+total.delta[cMisses])
	m["allocs_per_op"] = total.perOp(cMallocs)
	m["alloc_kb_per_op"] = total.perOp(cAllocBytes) / 1024
	m["rss_peak_mb"] = rss
	return res, nil
}

// durableReport is what the durable workload's teardown measures.
type durableReport struct {
	recoveryMs float64
	dirBytes   int64
	replayed   int
}

// verifyDurable is net_durable_mixed's teardown, untimed: stop the traffic,
// abandon the store without FlushAll or Close (a process crash: what the
// WAL acknowledged is all there is), reopen the directory and check that
// every customer reads back with the last acknowledged fill.
func (r *runner) verifyDurable() (durableReport, error) {
	var rep durableReport
	sys := r.sys
	for _, c := range sys.conns {
		_ = c.Close()
	}
	sys.conns = nil
	n := sys.nodes[0]
	_ = n.srv.Close()
	n.srv = nil

	entries, err := os.ReadDir(sys.dir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			rep.dirBytes += fi.Size()
		}
	}

	t0 := time.Now()
	st, err := file.OpenConfig(sys.dir, sys.def.storeConfig())
	if err != nil {
		return rep, fmt.Errorf("reopen store: %w", err)
	}
	reopened, err := db.Open(dbConfig(st))
	if err != nil {
		_ = st.Close()
		return rep, fmt.Errorf("reopen db: %w", err)
	}
	defer reopened.Close()
	rep.recoveryMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	rep.replayed = st.Recovery().Replayed
	if !reopened.Attached() || reopened.CustomerCount() != sys.def.Customers {
		return rep, fmt.Errorf("reopened store attached=%v with %d customers, want %d",
			reopened.Attached(), reopened.CustomerCount(), sys.def.Customers)
	}
	expected := r.clients[0].expected
	for cust := int64(0); cust < int64(sys.def.Customers); cust++ {
		rec, err := reopened.Lookup(cust)
		if err == nil {
			err = checkRecord(rec, cust, expected[cust])
		}
		if err != nil {
			return rep, fmt.Errorf("after reopen: %w", err)
		}
	}
	r.logf("  durability: reopened in %.1f ms, replayed %d WAL records, all %d customers hold their last acknowledged update",
		rep.recoveryMs, rep.replayed, sys.def.Customers)
	return rep, nil
}
