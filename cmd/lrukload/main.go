// Command lrukload is a closed-loop load generator for lrukd: N client
// connections each issue one request at a time (GET/UPDATE/SCAN in a
// weighted mix) against the page service for a fixed duration, then the
// tool fetches the server's STATS snapshot and prints a summary —
// throughput, a per-opcode latency table (client-side obs histograms, the
// same geometry the server exposes on /metrics), shed/unavailable/deadline
// counts, and the pool hit ratio. When the daemon runs with -obs-addr, the
// STATS reply carries the server's own histogram summaries and the table
// gains the server-side view — queue wait and per-op execution time — so
// client-observed and server-observed latency can be read side by side.
//
// Usage:
//
//	lrukload -addr 127.0.0.1:4980 -clients 8 -duration 5s -keys 10000
//	lrukload -addr ... -get 80 -update 20 -req-timeout 200ms
//	lrukload -addr ... -min-hit-ratio 0.01   # exit 1 below this ratio
//	lrukload -addr ... -ledger led.json      # crash-test load (see below)
//	lrukload -addr ... -ledger led.json -verify
//
// The -ledger / -verify pair is the durability crash test (the scenario
// package's TestCrash): -ledger drives an updates-only workload over a
// client-partitioned key space, recording each key's last acknowledged
// fill byte and lone in-flight update, and tolerates the server dying
// mid-run; -verify audits a restarted server against that file — every
// key must hold its last acknowledged value (or its single pending one),
// proving no acknowledged update was lost to the crash.
//
// Typed refusals (BUSY shed, UNAVAILABLE breaker, deadline) are counted,
// not fatal — they are the server doing its job under load. Transport
// errors are fatal in single-node mode: they mean the service broke its
// protocol or died.
//
// With -cluster "id=addr,..." the load is driven through the
// cluster-aware client instead of one socket: every request routes to its
// key's ring owner, MOVED redirects patch the membership view, and
// node-level failures are retried against the survivors — so transport
// errors are counted, not fatal. The summary gains a per-node table
// (request share, hit-ratio and shed deltas over the run) plus a skew
// line; -max-skew turns the skew into a gate, failing the run if the
// max/min request-share ratio exceeds it or any member is unreachable.
//
//	lrukload -cluster "n0=...,n1=...,n2=..." -max-skew 2.5 -min-hit-ratio 0.01
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/stats"
)

// caller is the operation surface the load loops drive; both the
// single-node *client.Client and the cluster *cluster.Client satisfy it.
type caller interface {
	Get(ctx context.Context, custID int64) ([]byte, error)
	Update(ctx context.Context, custID int64, fill byte) error
	Scan(ctx context.Context) (int, error)
}

// connector hands each load loop its caller. Single-node mode dials a
// fresh connection per loop (and redials after a transport error);
// cluster mode shares one self-healing cluster client across all loops,
// so transport errors are recorded and the loop simply continues.
type connector struct {
	dial      func() (caller, func() error, error)
	resilient bool
}

// The load mix's opcodes, indexing each tally's latency histograms.
const (
	opGet = iota
	opUpdate
	opScan
	numLoadOps
)

var opNames = [numLoadOps]string{"get", "update", "scan"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// tally is one client's outcome counts plus its per-opcode latency
// histograms (nanosecond observations; each client owns its own set, so
// recording never contends, and the fixed geometry makes the final merge a
// bucket-wise sum).
type tally struct {
	ok, busy, unavailable, deadline, notFound, remote uint64
	// transportN counts transport-level failures; transport keeps only the
	// first few as samples (a dead cluster node can produce thousands).
	transportN uint64
	transport  []error
	lat        [numLoadOps]*obs.Histogram
	// slowTrace/slowDur remember the client's slowest traced operation, so
	// the summary can print a trace id worth feeding to `lrukcluster trace`.
	slowTrace uint64
	slowDur   time.Duration
}

// maxTransportSamples caps the retained (and printed) transport errors.
const maxTransportSamples = 8

func (tl *tally) recordTransport(err error) {
	tl.transportN++
	if len(tl.transport) < maxTransportSamples {
		tl.transport = append(tl.transport, err)
	}
}

func newTally() tally {
	var tl tally
	for i := range tl.lat {
		tl.lat[i] = obs.NewHistogram()
	}
	return tl
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrukload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:4980", "lrukd address")
		clients    = fs.Int("clients", 8, "concurrent client connections")
		duration   = fs.Duration("duration", 2*time.Second, "run length")
		keys       = fs.Int("keys", 10000, "customer key space [0, keys)")
		getW       = fs.Int("get", 90, "GET weight in the op mix")
		updateW    = fs.Int("update", 9, "UPDATE weight in the op mix")
		scanW      = fs.Int("scan", 1, "SCAN weight in the op mix")
		seed       = fs.Uint64("seed", 1, "RNG seed")
		reqTimeout = fs.Duration("req-timeout", time.Second, "per-request time budget")
		minHit     = fs.Float64("min-hit-ratio", 0, "fail unless the pool hit ratio reaches this (0 disables)")
		ledger     = fs.String("ledger", "", "crash-test ledger path: run an updates-only workload recording acknowledged fills per key (see -verify)")
		verify     = fs.Bool("verify", false, "verify a restarted server against the -ledger file instead of generating load")
		clusterFl  = fs.String("cluster", "", "cluster spec \"id=addr,...\": drive the whole cluster through the ring-aware client instead of -addr")
		maxSkew    = fs.Float64("max-skew", 0, "fail if the per-node request-share max/min ratio exceeds this (cluster mode; 0 disables)")
		traceFr    = fs.Float64("trace-sample", 0, "fraction of requests to send under a sampled trace context (0..1; needs the server's -trace-spans)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *getW < 0 || *updateW < 0 || *scanW < 0:
		fmt.Fprintln(stderr, "lrukload: -get, -update and -scan weights must not be negative")
		return 2
	case *traceFr < 0 || *traceFr > 1:
		fmt.Fprintln(stderr, "lrukload: -trace-sample must be in [0,1]")
		return 2
	case *maxSkew < 0 || *minHit < 0:
		fmt.Fprintln(stderr, "lrukload: -max-skew and -min-hit-ratio must not be negative")
		return 2
	}

	// The connector decides what each load loop talks to.
	conn := connector{dial: func() (caller, func() error, error) {
		cl, err := client.Dial(*addr)
		if err != nil {
			return nil, nil, err
		}
		return cl, cl.Close, nil
	}}
	var cc *cluster.Client
	if *clusterFl != "" {
		spec, err := cluster.ParseSpec(*clusterFl)
		if err != nil {
			fmt.Fprintln(stderr, "lrukload:", err)
			return 2
		}
		cc, err = cluster.New(cluster.Config{View: spec})
		if err != nil {
			fmt.Fprintln(stderr, "lrukload:", err)
			return 2
		}
		defer cc.Close()
		conn = connector{
			dial:      func() (caller, func() error, error) { return cc, func() error { return nil }, nil },
			resilient: true,
		}
	} else if *maxSkew > 0 {
		fmt.Fprintln(stderr, "lrukload: -max-skew requires -cluster")
		return 2
	}
	if *verify {
		if *ledger == "" {
			fmt.Fprintln(stderr, "lrukload: -verify requires -ledger")
			return 2
		}
		return runVerify(ctx, *ledger, conn, *reqTimeout, stdout, stderr)
	}
	if *clients <= 0 || *keys <= 0 || *duration <= 0 {
		fmt.Fprintln(stderr, "lrukload: clients, keys, and duration must be positive")
		return 2
	}
	if *ledger != "" {
		return runLedgerLoad(ctx, *ledger, conn, *clients, time.Now().Add(*duration), *keys, *seed, *reqTimeout, stdout, stderr)
	}
	totalW := *getW + *updateW + *scanW
	if totalW <= 0 {
		fmt.Fprintln(stderr, "lrukload: op mix weights sum to zero")
		return 2
	}

	// In cluster mode, snapshot every node's counters first so the summary
	// can report per-node deltas attributable to this run alone.
	var before map[string]wire.StatsReply
	if cc != nil {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		before, _ = cc.StatsAll(sctx)
		cancel()
	}

	tallies := make([]tally, *clients)
	var wg sync.WaitGroup
	end := time.Now().Add(*duration)
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tallies[i] = drive(ctx, conn, end, *keys, *getW, *updateW, totalW, *seed+uint64(i), *reqTimeout, byte(i), *traceFr)
		}(i)
	}
	wg.Wait()

	// Merge: outcome counts arithmetically, latency histograms bucket-wise
	// (snapshots of the shared geometry sum exactly).
	var sum tally
	var perOp [numLoadOps]obs.HistSnapshot
	var overall obs.HistSnapshot
	for _, tl := range tallies {
		sum.ok += tl.ok
		sum.busy += tl.busy
		sum.unavailable += tl.unavailable
		sum.deadline += tl.deadline
		sum.notFound += tl.notFound
		sum.remote += tl.remote
		sum.transportN += tl.transportN
		for _, err := range tl.transport {
			if len(sum.transport) < maxTransportSamples {
				sum.transport = append(sum.transport, err)
			}
		}
		for i := range tl.lat {
			s := tl.lat[i].Snapshot()
			perOp[i].Merge(s)
			overall.Merge(s)
		}
		if tl.slowTrace != 0 && tl.slowDur > sum.slowDur {
			sum.slowTrace, sum.slowDur = tl.slowTrace, tl.slowDur
		}
	}
	ops := sum.ok + sum.busy + sum.unavailable + sum.deadline + sum.notFound + sum.remote

	fmt.Fprintf(stdout, "lrukload: clients=%d duration=%v keys=%d mix get/update/scan=%d/%d/%d\n",
		*clients, *duration, *keys, *getW, *updateW, *scanW)
	fmt.Fprintf(stdout, "lrukload: ops=%d ok=%d busy=%d unavailable=%d deadline=%d not_found=%d remote_err=%d transport_err=%d\n",
		ops, sum.ok, sum.busy, sum.unavailable, sum.deadline, sum.notFound, sum.remote, sum.transportN)
	if overall.Count > 0 {
		fmt.Fprintf(stdout, "lrukload: throughput=%.0f ops/s latency_ms p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
			float64(ops)/duration.Seconds(),
			nsToMillis(overall.Quantile(0.50)),
			nsToMillis(overall.Quantile(0.95)),
			nsToMillis(overall.Quantile(0.99)),
			nsToMillis(float64(overall.Max)))
		fmt.Fprintf(stdout, "lrukload: %-10s %10s %10s %10s %10s %10s\n",
			"client_ms", "count", "p50", "p95", "p99", "max")
		for i, name := range opNames {
			if perOp[i].Count == 0 {
				continue
			}
			printLatencyRow(stdout, name, perOp[i].Count,
				nsToMillis(perOp[i].Quantile(0.50)), nsToMillis(perOp[i].Quantile(0.95)),
				nsToMillis(perOp[i].Quantile(0.99)), nsToMillis(float64(perOp[i].Max)))
		}
		printLatencyRow(stdout, "total", overall.Count,
			nsToMillis(overall.Quantile(0.50)), nsToMillis(overall.Quantile(0.95)),
			nsToMillis(overall.Quantile(0.99)), nsToMillis(float64(overall.Max)))
	}
	if sum.slowTrace != 0 {
		// The trace id most worth looking at: feed it to
		// `lrukcluster trace` against the nodes' obs addresses.
		fmt.Fprintf(stdout, "lrukload: slowest trace=%016x latency=%v\n", sum.slowTrace, sum.slowDur)
	}
	for _, err := range sum.transport {
		fmt.Fprintln(stderr, "lrukload: transport:", err)
	}
	if extra := sum.transportN - uint64(len(sum.transport)); extra > 0 {
		fmt.Fprintf(stderr, "lrukload: transport: ... and %d more\n", extra)
	}

	// The server-side view of the run: one node's stats in single-node
	// mode, the per-node delta table plus skew in cluster mode.
	code := 0
	hitRatio := -1.0
	if cc != nil {
		var skewOK bool
		hitRatio, skewOK = printClusterStats(ctx, cc, before, *maxSkew, stdout, stderr)
		if *maxSkew > 0 && !skewOK {
			code = 1
		}
	} else {
		cl, err := client.Dial(*addr)
		if err != nil {
			fmt.Fprintln(stderr, "lrukload: stats dial:", err)
		} else {
			defer cl.Close()
			sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			reply, err := cl.Stats(sctx)
			if err != nil {
				fmt.Fprintln(stderr, "lrukload: stats:", err)
			} else {
				hitRatio = reply.DB.PoolHitRatio
				fmt.Fprintf(stdout, "lrukload: server conns=%d requests=%d shed=%d statuses=%v\n",
					reply.Server.Conns, reply.Server.Requests, reply.Server.Shed, reply.Server.Statuses)
				fmt.Fprintf(stdout, "lrukload: pool hits=%d misses=%d hit_ratio=%.4f disk_reads=%d quarantined=%d\n",
					reply.DB.Pool.Hits, reply.DB.Pool.Misses, hitRatio, reply.DB.Disk.Reads, reply.DB.Quarantined)
				printServerSummaries(stdout, reply.Obs)
			}
		}
	}

	// Transport errors fail a single-node run (the server broke or died);
	// in cluster mode they are the expected cost of node churn, already
	// absorbed by rerouting, and the gates below judge the outcome.
	if sum.transportN > 0 && cc == nil {
		code = 1
	}
	if ops == 0 {
		fmt.Fprintln(stderr, "lrukload: no operation completed")
		code = 1
	}
	if *minHit > 0 {
		if hitRatio < 0 {
			fmt.Fprintln(stderr, "lrukload: hit-ratio gate set but stats unavailable")
			code = 1
		} else if hitRatio < *minHit {
			fmt.Fprintf(stderr, "lrukload: pool hit ratio %.4f below required %.4f\n", hitRatio, *minHit)
			code = 1
		}
	}
	return code
}

// printClusterStats renders the per-node delta table over the run — each
// member's request count and share, hit-ratio and shed deltas — plus the
// request-share skew (max/min). Returns the cluster-wide hit ratio over
// the run's window and whether the skew check passed: every spec'd node
// reachable and skew within maxSkew (when set). Nodes that joined or
// left mid-run appear with whatever window the snapshots caught.
func printClusterStats(ctx context.Context, cc *cluster.Client, before map[string]wire.StatsReply,
	maxSkew float64, stdout, stderr io.Writer) (hitRatio float64, skewOK bool) {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	after, err := cc.StatsAll(sctx)
	cancel()
	if err != nil {
		fmt.Fprintln(stderr, "lrukload: cluster stats:", err)
	}
	if len(after) == 0 {
		return -1, false
	}
	ids := make([]string, 0, len(after))
	for id := range after {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	type row struct {
		id              string
		dReq, dShed     uint64
		dHits, dLookups uint64
		hitRatio        float64
	}
	rows := make([]row, 0, len(ids))
	var totReq, totHits, totLookups uint64
	for _, id := range ids {
		a := after[id]
		b := before[id] // zero value when the node is new: full-history delta
		r := row{
			id:       id,
			dReq:     a.Server.Requests - b.Server.Requests,
			dShed:    a.Server.Shed - b.Server.Shed,
			dHits:    a.DB.Pool.Hits - b.DB.Pool.Hits,
			dLookups: (a.DB.Pool.Hits + a.DB.Pool.Misses) - (b.DB.Pool.Hits + b.DB.Pool.Misses),
		}
		r.hitRatio = -1
		if r.dLookups > 0 {
			r.hitRatio = float64(r.dHits) / float64(r.dLookups)
		}
		totReq += r.dReq
		totHits += r.dHits
		totLookups += r.dLookups
		rows = append(rows, r)
	}

	fmt.Fprintf(stdout, "lrukload: %-8s %12s %8s %12s %10s\n",
		"node", "requests", "share", "hit_ratio", "shed")
	minShare, maxShare := 1.0, 0.0
	for _, r := range rows {
		share := 0.0
		if totReq > 0 {
			share = float64(r.dReq) / float64(totReq)
		}
		if share < minShare {
			minShare = share
		}
		if share > maxShare {
			maxShare = share
		}
		hr := "n/a"
		if r.hitRatio >= 0 {
			hr = fmt.Sprintf("%.4f", r.hitRatio)
		}
		fmt.Fprintf(stdout, "lrukload:   %-6s %12d %8.3f %12s %10d\n",
			r.id, r.dReq, share, hr, r.dShed)
	}
	hitRatio = -1
	if totLookups > 0 {
		hitRatio = float64(totHits) / float64(totLookups)
	}

	skew := 0.0
	if minShare > 0 {
		skew = maxShare / minShare
	}
	skewOK = err == nil
	switch {
	case skew == 0:
		fmt.Fprintln(stdout, "lrukload: skew undefined (a node served nothing)")
		skewOK = false
	case maxSkew > 0 && skew > maxSkew:
		fmt.Fprintf(stderr, "lrukload: request-share skew %.2f exceeds -max-skew %.2f\n", skew, maxSkew)
		fmt.Fprintf(stdout, "lrukload: skew=%.2f (gate %.2f)\n", skew, maxSkew)
		skewOK = false
	default:
		fmt.Fprintf(stdout, "lrukload: skew=%.2f\n", skew)
	}
	if err != nil && maxSkew > 0 {
		fmt.Fprintln(stderr, "lrukload: -max-skew gate set but a member was unreachable")
	}
	return hitRatio, skewOK
}

// nsToMillis converts a nanosecond histogram value to milliseconds.
func nsToMillis(ns float64) float64 { return ns / 1e6 }

// printLatencyRow emits one line of the latency table.
func printLatencyRow(w io.Writer, name string, count uint64, p50, p95, p99, max float64) {
	fmt.Fprintf(w, "lrukload:   %-8s %10d %10.3f %10.3f %10.3f %10.3f\n",
		name, count, p50, p95, p99, max)
}

// printServerSummaries renders the server's own histogram digests from the
// STATS reply (present only when lrukd runs with -obs-addr): per-op
// execution time and queue wait, in milliseconds, next to the client-side
// table above. The gap between the two is wire plus queueing.
func printServerSummaries(w io.Writer, summaries map[string]obs.HistSummary) {
	if len(summaries) == 0 {
		return
	}
	fmt.Fprintf(w, "lrukload: %-10s %10s %10s %10s %10s %10s\n",
		"server_ms", "count", "p50", "p95", "p99", "max")
	const secToMs = 1e3
	for _, name := range opNames {
		sum, ok := summaries[`lruk_server_request_seconds{op="`+name+`"}`]
		if !ok || sum.Count == 0 {
			continue
		}
		printLatencyRow(w, name, sum.Count,
			sum.P50*secToMs, sum.P95*secToMs, sum.P99*secToMs, sum.Max*secToMs)
	}
	if sum, ok := summaries["lruk_server_queue_wait_seconds"]; ok && sum.Count > 0 {
		printLatencyRow(w, "queue", sum.Count,
			sum.P50*secToMs, sum.P95*secToMs, sum.P99*secToMs, sum.Max*secToMs)
	}
	if sum, ok := summaries["lruk_pool_fetch_seconds"]; ok && sum.Count > 0 {
		printLatencyRow(w, "fetch", sum.Count,
			sum.P50*secToMs, sum.P95*secToMs, sum.P99*secToMs, sum.Max*secToMs)
	}
}

// drive runs one closed-loop client until end (or ctx cancellation),
// reconnecting once per transport error so a single hiccup does not idle
// the connection's whole share of the load. A resilient connector (the
// cluster client) needs no reconnect: its per-node pools self-heal, so
// the loop records the failure and keeps going.
func drive(ctx context.Context, conn connector, end time.Time, keys, getW, updateW, totalW int, seed uint64, reqTimeout time.Duration, fill byte, traceFr float64) tally {
	tl := newTally()
	rng := stats.NewRNG(seed)
	cl, closeCl, err := conn.dial()
	if err != nil {
		tl.recordTransport(err)
		return tl
	}
	defer func() { _ = closeCl() }()
	for time.Now().Before(end) && ctx.Err() == nil {
		key := int64(rng.Intn(keys))
		rctx, cancel := context.WithTimeout(ctx, reqTimeout)
		// A sampled fraction of requests carry a trace context: the seeded
		// stream makes the choice (and the ids) reproducible per client.
		var traceID uint64
		if traceFr > 0 && rng.Float64() < traceFr {
			for traceID == 0 {
				traceID = rng.Uint64()
			}
			rctx = obs.ContextWithTrace(rctx, obs.TraceContext{
				TraceID: traceID, SpanID: rng.Uint64(), Sampled: true,
			})
		}
		began := time.Now()
		var err error
		var op int
		switch draw := rng.Intn(totalW); {
		case draw < getW:
			op = opGet
			_, err = cl.Get(rctx, key)
		case draw < getW+updateW:
			op = opUpdate
			err = cl.Update(rctx, key, fill)
		default:
			op = opScan
			_, err = cl.Scan(rctx)
		}
		cancel()
		var remote *client.Error
		switch {
		case err == nil:
			tl.ok++
		case errors.Is(err, client.ErrBusy):
			tl.busy++
		case errors.Is(err, client.ErrUnavailable):
			tl.unavailable++
		case errors.Is(err, context.DeadlineExceeded) && errors.As(err, &remote):
			// Deadline refused by the server: a counted outcome.
			tl.deadline++
		case errors.Is(err, client.ErrNotFound):
			tl.notFound++
		case errors.As(err, &remote):
			tl.remote++
		default:
			// Transport failure. The aborted request's latency is not
			// recorded — it measured the failure, not the service. A plain
			// connection is poisoned: record and reconnect (repeated dial
			// failures end the client). The cluster client already retried
			// and rerouted internally; just keep driving.
			tl.recordTransport(err)
			if conn.resilient {
				continue
			}
			_ = closeCl()
			cl, closeCl, err = conn.dial()
			if err != nil {
				tl.recordTransport(err)
				return tl
			}
			continue
		}
		dur := time.Since(began)
		tl.lat[op].Observe(dur.Nanoseconds())
		if traceID != 0 && dur > tl.slowDur {
			tl.slowTrace, tl.slowDur = traceID, dur
		}
	}
	return tl
}
