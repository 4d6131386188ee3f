package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/server/client"
)

const (
	// tracedWindowPairs is how many (untraced, traced) window pairs the
	// traced run measures after its warm-up.
	tracedWindowPairs = 2
	// windowSpanCap bounds the root spans one client keeps per traced
	// window; ladderMaxOps bounds the ops replayed at each ladder level.
	windowSpanCap = 4096
	ladderMaxOps  = 10000
	ladderBlock   = 50
	// replayOps is the length of the K=1 / K=2 single-threaded replays.
	replayOps = 100000
)

// runTraced is the per-layer run. It never reports an end-to-end metric.
// Phases: set-up with the span-recording backend in place; warm-up; pairs of
// windows with recording off and on (boundary counters, tracing overhead);
// the layer ladder; the K=1/K=2 replays; the isolated probes; teardown.
func runTraced(cfg runConfig) (*result, error) {
	r := newRunner(cfg)
	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	for _, d := range perLayer {
		m[d.Name] = 0 // every per-layer metric is emitted, 0 where it does not apply
	}

	ladderOps := min(r.windowOps, ladderMaxOps)
	r.tr = newTracer(2*tracedWindowPairs*numClients*windowSpanCap + 3*3*ladderOps)
	sys, err := setupSystem(cfg.def, r.tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.sys = sys
	defer func() { r.sys.close() }()
	r.makeClients((1+2*tracedWindowPairs)*r.windowOps + 3*ladderOps)

	r.window(0) // warm-up, discarded
	var off, on windowStats
	for i := 0; i < tracedWindowPairs; i++ {
		off.add(r.window(0))
		r.tr.timing.Store(true)
		on.add(r.window(windowSpanCap))
		r.tr.timing.Store(false)
	}
	r.logf("  windows: untraced %.0f ops/s, traced %.0f ops/s", off.throughput(), on.throughput())
	var all windowStats
	all.add(&off)
	all.add(&on)

	// (a) boundary counters. Latency and process cost from the untraced
	// windows; exact counts from all of them.
	m["client.throughput_ops_s"] = off.throughput()
	m["client.get_p50_us"] = off.get.Quantile(0.50) / 1e3
	m["client.get_p95_us"] = off.get.Quantile(0.95) / 1e3
	m["client.get_p99_us"] = off.get.Quantile(0.99) / 1e3
	m["client.get_p999_us"] = off.get.Quantile(0.999) / 1e3
	m["client.update_p50_us"] = off.upd.Quantile(0.50) / 1e3
	m["client.update_p95_us"] = off.upd.Quantile(0.95) / 1e3
	m["process.cpu_us_per_op"] = off.perOp(cCPUNs) / 1e3
	m["process.gc_pause_ms"] = float64(off.delta[cGCPauseNs]) / 1e6
	m["process.gc_cycles"] = float64(off.delta[cGCCycles])
	m["server.requests_per_op"] = all.perOp(cSrvRequests)
	m["server.shed_ratio"] = ratio(all.delta[cSrvShed], all.delta[cSrvRequests])
	if cfg.def.Kind == kindCluster {
		m["cluster.moved_per_op"] = all.perOp(cClusterMoved)
		m["cluster.retries_per_op"] = float64(all.delta[cClusterSent]-all.ops) / float64(all.ops)
		var busiest uint64
		for i := range sys.nodes {
			busiest = max(busiest, all.delta[cNodeOK+counter(i)])
		}
		m["cluster.node_skew"] = float64(busiest) * float64(len(sys.nodes)) / float64(all.ops)
	}
	m["bufferpool.hits_per_op"] = all.perOp(cHits)
	m["bufferpool.misses_per_op"] = all.perOp(cMisses)
	m["bufferpool.evictions_per_op"] = all.perOp(cEvictions)
	m["bufferpool.write_backs_per_op"] = all.perOp(cWriteBacks)
	m["bufferpool.coalesced_per_miss"] = ratio(all.delta[cCoalesced], all.delta[cMisses])
	m["core.evictions_per_op"] = all.perOp(cPolicyEvictions)
	m["core.crp_collapses_per_op"] = all.perOp(cCollapses)
	for _, n := range sys.nodes {
		m["core.history_blocks"] += float64(n.db.StatsSnapshot().Policy.HistoryBlocks)
	}
	m["storage.busy_us_per_op"] = on.perOp(cStorageBusyNs) / 1e3
	m["storage.read_p50_us"] = r.tr.reads.Quantile(0.50) / 1e3
	m["storage.write_p50_us"] = r.tr.writes.Quantile(0.50) / 1e3
	m["storage.reads_per_op"] = all.perOp(cReads)
	m["storage.writes_per_op"] = all.perOp(cWrites)
	m["storage.disk_ios_per_op"] = float64(all.delta[cReads]+all.delta[cWrites]+all.delta[cWALAppends]) / float64(all.ops)
	m["trace.overhead_ratio"] = on.throughput() / off.throughput()
	if cfg.def.Durable {
		m["storage_file.wal_appends_per_update"] = ratio(all.delta[cWALAppends], all.updates)
		m["storage_file.wal_syncs_per_update"] = ratio(all.delta[cWALSyncs], all.updates)
		m["storage_file.checkpoints"] = float64(all.delta[cCheckpoints])
		m["storage_file.write_amp"] = float64(all.delta[cWALAppends]+all.delta[cWrites]) * 4096 /
			(float64(all.updates) * recordSize)
		t0 := time.Now()
		if err := sys.nodes[0].db.FlushAll(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		m["storage_file.checkpoint_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}

	// (b) the ladder.
	if err := r.ladder(ladderOps, on.get.Quantile(0.50), m); err != nil {
		return nil, err
	}
	r.tally(res)
	m["client.error_ratio"] = ratio(res.failed, res.attempted)

	// The paper's LRU-2-over-LRU-1 gap on this workload's reference string.
	for _, k := range []int{1, 2} {
		h, err := replayHitRatio(cfg.def, k, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("K=%d replay: %w", k, err)
		}
		m[fmt.Sprintf("core.hit_ratio_k%d", k)] = h
	}

	// (c) the probes.
	if err := runProbes(cfg.def, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	if cfg.def.Durable {
		rep, err := r.verifyDurable()
		if err != nil {
			r.logf("  durability check FAILED: %v", err)
			res.correct = false
		}
		m["storage_file.recovery_ms"] = rep.recoveryMs
		m["storage_file.space_amp"] = float64(rep.dirBytes) / (float64(cfg.def.Customers) * recordSize)
	}

	if err := checkNesting(r.tr.spans); err != nil {
		r.logf("  trace FAILED its structure check: %v", err)
		res.correct = false
	}
	path, err := writeTrace(cfg.def, cfg.seed, r.tr, m)
	if err != nil {
		return nil, err
	}
	r.logf("  %d spans (%d dropped) written to %s", len(r.tr.spans), r.tr.dropped, path)
	return res, nil
}

// ladderLevel is one public entry point of the stack, outermost first.
type ladderLevel struct {
	name string
	// entryFor returns the level's calls for a customer (the cluster
	// workload's inner levels go to the owning node).
	entryFor func(cust int64) *entry
	get      Hist // GET root span durations
	self     Hist // GET root minus its storage children
	child    Hist // GET storage children
}

// ladder continues client 0's stream, alone, n ops at each successive entry
// point — cluster.Client, client.Client, db — with a root span around every
// call and the backend wrapper's spans as its children. One client, so a
// request's storage calls are exactly those made while it is the current
// request. A layer's self time is its span minus the next level's (for db:
// minus its storage children). What the self times leave of observedP50 —
// the GET p50 the two concurrent clients saw in the traced windows — is
// unattributed: waiting between layers that one client alone does not cause
// (positive), or a service that is slower woken from idle than kept busy
// (negative).
func (r *runner) ladder(n int, observedP50 float64, m map[string]float64) error {
	sys := r.sys
	ctx := context.Background()
	c := r.clients[0]
	var levels []*ladderLevel

	owner := func(int64) *node { return sys.nodes[0] }
	if sys.def.Kind == kindCluster {
		ring := cluster.NewRing(sys.view)
		byID := map[string]*node{}
		for _, n := range sys.nodes {
			byID[n.id] = n
		}
		owner = func(cust int64) *node { return byID[ring.Owner(cust)] }
		e := sys.entry(0)
		levels = append(levels, &ladderLevel{name: "cluster.Client", entryFor: func(int64) *entry { return e }})
	}
	if sys.def.Kind != kindEmbed {
		direct := map[*node]*entry{}
		for _, n := range sys.nodes {
			conn, err := client.Dial(n.addr)
			if err != nil {
				return err
			}
			defer conn.Close()
			direct[n] = &entry{conn.Get, conn.Update}
		}
		levels = append(levels, &ladderLevel{name: "client.Client", entryFor: func(cust int64) *entry { return direct[owner(cust)] }})
	}
	inproc := map[*node]*entry{}
	for _, n := range sys.nodes {
		inproc[n] = dbEntry(n.db)
	}
	levels = append(levels, &ladderLevel{name: "db", entryFor: func(cust int64) *entry { return inproc[owner(cust)] }})

	// Levels take turns in blocks of ladderBlock consecutive ops of the
	// stream, so machine drift lands on every level alike and no level
	// replays pages the previous one just made resident.
	r.tr.timing.Store(true)
	for done := 0; done < n; done += ladderBlock {
		for _, lv := range levels {
			for i := 0; i < min(ladderBlock, n-done); i++ {
				op := c.next()
				e := lv.entryFor(op.Cust())
				name := lv.name + ".Get"
				if op.Fill() != 0 {
					name = lv.name + ".Update"
				}
				id := r.tr.newSpanID()
				r.tr.childNs.Store(0)
				r.tr.cur.Store(uint64(id)<<32 | uint64(id))
				t0 := time.Now()
				c.do(ctx, op, e)
				t1 := time.Now()
				r.tr.cur.Store(0)
				r.tr.add(name, t0, t1, id, 0, id)
				if op.Fill() == 0 {
					d, child := t1.Sub(t0).Nanoseconds(), r.tr.childNs.Load()
					lv.get.Record(d)
					lv.child.Record(child)
					lv.self.Record(d - child)
				}
			}
		}
	}
	r.tr.timing.Store(false)

	p50 := func(h *Hist) float64 { return h.Quantile(0.50) / 1e3 }
	dbLevel := levels[len(levels)-1]
	m["db.self_us"] = p50(&dbLevel.self)
	m["storage.self_us"] = p50(&dbLevel.child)
	sum := m["db.self_us"] + m["storage.self_us"]
	if len(levels) >= 2 {
		m["server.self_us"] = p50(&levels[len(levels)-2].get) - p50(&dbLevel.get)
		sum += m["server.self_us"]
	}
	if len(levels) == 3 {
		m["cluster.self_us"] = p50(&levels[0].get) - p50(&levels[1].get)
		sum += m["cluster.self_us"]
	}
	if observedP50 > 0 {
		m["trace.unattributed_ratio"] = 1 - sum/(observedP50/1e3)
	}
	for _, lv := range levels {
		r.logf("  ladder %-15s GET p50 %8.2f us  (storage children p50 %.2f us, %d GETs)",
			lv.name, p50(&lv.get), p50(&lv.child), lv.get.Count())
	}
	return nil
}

// replayHitRatio replays the workload's two client streams, interleaved on
// one goroutine, against a fresh embedded sim database whose replacer has
// history depth k — the only run that sets db.Config.K — and returns the
// pool hit ratio after a warm-up quarter.
func replayHitRatio(def *workloadDef, k int, seed uint64) (float64, error) {
	cfg := dbConfig(nil)
	cfg.K = k
	d, err := db.Open(cfg)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	if err := d.LoadCustomers(def.Customers); err != nil {
		return 0, err
	}
	e := dbEntry(d)
	ctx := context.Background()
	expected := make([]byte, def.Customers)
	n := probeN(replayOps)
	var cs [numClients]*benchClient
	for c := range cs {
		cs[c] = &benchClient{id: c, ops: def.Stream(seed, c, n/numClients+1), expected: expected}
	}
	var warm struct{ hits, misses uint64 }
	for i := 0; i < n; i++ {
		if i == n/4 {
			st := d.PoolStats()
			warm.hits, warm.misses = st.Hits, st.Misses
		}
		c := cs[i%numClients]
		c.do(ctx, c.ops[i/numClients], e)
	}
	for _, c := range cs {
		if c.firstErr != nil {
			return 0, c.firstErr
		}
	}
	st := d.PoolStats()
	return ratio(st.Hits-warm.hits, st.Hits-warm.hits+st.Misses-warm.misses), nil
}
