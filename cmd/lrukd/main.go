// Command lrukd is the network page-service daemon: it assembles the
// miniature customer database (LRU-K buffer pool, B-tree index, heap
// file), loads a synthetic customer population, and serves it over the
// wire protocol of internal/server until SIGTERM/SIGINT, then drains
// gracefully and verifies its own shutdown leaked no goroutines.
//
// Usage:
//
//	lrukd -addr 127.0.0.1:4980 -customers 10000 -frames 404 -k 2
//	lrukd -addr 127.0.0.1:0 ...   # free port; read it from the serving line
//	lrukd -backend=file -data-dir=/var/lib/lrukd ...   # durable store
//	lrukd -node-id n0 -cluster "n0=127.0.0.1:4980,n1=127.0.0.1:4981" ...
//
// With -node-id/-cluster the node boots holding an epoch-1 membership
// view over the spec'd peers: record requests for keys the consistent-hash
// ring assigns elsewhere are refused with a MOVED redirect naming the
// owner, and the serving line gains a node=<id> field. Every member must
// be started with the same spec (see README "Running a cluster").
//
// With -backend=file the customer pages live in a WAL-protected page file
// under -data-dir: the first start loads and checkpoints the population,
// and every restart recovers the dataset (acknowledged updates included)
// instead of reloading, printing
//
//	lrukd: recovered <dir> (replayed=... torn_tail=... customers=...)
//
// On startup it prints exactly one line of the form
//
//	lrukd: serving on <host:port> (customers=... frames=... k=... workers=... queue=...)
//
// which names the bound address. With -obs-addr it additionally prints
//
//	lrukd: observability on <host:port>
//
// and serves /metrics (Prometheus text), /trace (the eviction trace ring
// as JSON), /healthz (readiness: 503 until serving, 503 again once
// draining) and /debug/pprof/* on that second listener; with -trace-spans
// it also serves /spans (the distributed-tracing span ring, ?trace=<hex>
// filters one trace). The client decides which requests are traced and
// the wire flag carries its decision; the node adds tail rescue only: a
// failed or shed request, or with -trace-slow one at least that slow,
// leaves its request span even when the client did not sample it.
// On a clean exit it prints "lrukd: clean shutdown" and exits 0; any drain
// failure or leaked goroutine exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/storage"
	"repro/internal/storage/file"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrukd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:4980", "TCP listen address (:0 picks a free port)")
		backend   = fs.String("backend", "sim", "storage backend: sim (in-memory simulated disk) or file (durable page file with WAL)")
		dataDir   = fs.String("data-dir", "", "data directory for -backend=file (created if missing)")
		customers = fs.Int("customers", 10000, "customer records to load before serving")
		frames    = fs.Int("frames", 404, "buffer pool size in pages")
		k         = fs.Int("k", 2, "LRU-K history depth (1 = classical LRU)")
		workers   = fs.Int("workers", 0, "execution slots: concurrent database operations (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 0, "requests that may wait for a slot before BUSY (0 = 4x workers)")
		drain     = fs.Duration("drain", 5*time.Second, "graceful drain window on shutdown")
		maxReq    = fs.Duration("max-request-timeout", 30*time.Second, "cap on any request's time budget")
		obsAddr   = fs.String("obs-addr", "", "observability HTTP address serving /metrics, /trace and /debug/pprof (empty = off)")
		spanCap   = fs.Int("trace-spans", 0, "distributed-tracing span ring capacity (0 = tracing off)")
		slowThr   = fs.Duration("trace-slow", 0, "tail-sample any request at least this slow (0 = off)")
		scrubIval = fs.Duration("scrub-interval", 0, "period between background integrity scrub sweeps (0 = off)")
		maxWAL    = fs.Int64("max-wal-bytes", 0, "force a checkpoint when the WAL exceeds this size (-backend=file; 0 = no cap)")
		nodeID    = fs.String("node-id", "", "this node's identity in a cluster (required with -cluster)")
		clusterFl = fs.String("cluster", "", "cluster membership spec \"id=addr,...\" naming every node including this one (bootstraps an epoch-1 view)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A flag that cannot take effect is a usage error, not a silent no-op.
	switch {
	case *slowThr != 0 && *spanCap <= 0:
		fmt.Fprintln(stderr, "lrukd: -trace-slow requires -trace-spans")
		return 2
	case *maxWAL != 0 && *backend != "file":
		fmt.Fprintln(stderr, "lrukd: -max-wal-bytes requires -backend=file")
		return 2
	}
	for _, f := range []struct {
		name     string
		got, min int64
	}{
		{"k", int64(*k), 1}, {"frames", int64(*frames), 1}, {"customers", int64(*customers), 1},
		{"workers", int64(*workers), 0}, {"queue", int64(*queue), 0},
		{"trace-spans", int64(*spanCap), 0}, {"max-wal-bytes", *maxWAL, 0},
		{"drain", int64(*drain), 0}, {"max-request-timeout", int64(*maxReq), 0},
		{"trace-slow", int64(*slowThr), 0}, {"scrub-interval", int64(*scrubIval), 0},
	} {
		if f.got < f.min {
			// The flag's own rendering of the value: "-1s", not -1000000000.
			fmt.Fprintf(stderr, "lrukd: -%s must be at least %d, got %s\n", f.name, f.min, fs.Lookup(f.name).Value)
			return 2
		}
	}

	// Cluster bootstrap: a spec names every member; this node must be one
	// of them. The parsed epoch-0 hint is stamped to epoch 1, so a node
	// booted from the spec is authoritative over spec-configured clients
	// (a newer view installed later via VIEW_SET still wins).
	var view *wire.View
	if *clusterFl != "" {
		if *nodeID == "" {
			fmt.Fprintln(stderr, "lrukd: -cluster requires -node-id")
			return 2
		}
		spec, err := cluster.ParseSpec(*clusterFl)
		if err != nil {
			fmt.Fprintln(stderr, "lrukd:", err)
			return 2
		}
		if _, ok := spec.Node(*nodeID); !ok {
			fmt.Fprintf(stderr, "lrukd: node id %q is not in the cluster spec\n", *nodeID)
			return 2
		}
		v := cluster.Bootstrap(spec)
		view = &v
	}

	// Snapshot the goroutine baseline before anything is spawned, so the
	// post-drain leak check measures only what lrukd itself started.
	baseline := runtime.NumGoroutine()

	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
	}
	// The span recorder exists independently of the obs listener (spans are
	// recorded either way; /spans just needs -obs-addr to be readable). Its
	// ids are salted by the node identity so two nodes never mint colliding
	// span ids within one trace.
	var spanRec *obs.SpanRecorder
	if *spanCap > 0 {
		spanRec = obs.NewSpanRecorder(*nodeID, *spanCap)
	}

	// Backend selection: the default simulated disk, or the durable
	// file-backed store. The database owns whichever backend it is handed
	// and closes it on Close.
	var store storage.Backend
	switch *backend {
	case "sim":
		if *dataDir != "" {
			fmt.Fprintln(stderr, "lrukd: -data-dir requires -backend=file")
			return 2
		}
	case "file":
		if *dataDir == "" {
			fmt.Fprintln(stderr, "lrukd: -backend=file requires -data-dir")
			return 2
		}
		s, err := file.OpenConfig(*dataDir, file.Config{
			MaxWALBytes: *maxWAL,
			Spans:       spanRec,
		})
		if err != nil {
			fmt.Fprintln(stderr, "lrukd:", err)
			return 1
		}
		store = s
	default:
		fmt.Fprintf(stderr, "lrukd: unknown backend %q (want sim or file)\n", *backend)
		return 2
	}

	database, err := db.Open(db.Config{
		Backend:       store,
		Frames:        *frames,
		K:             *k,
		Obs:           reg,
		ScrubInterval: *scrubIval,
		Spans:         spanRec,
		// A circuit breaker over the disk, whose refusals the server maps
		// onto wire statuses. Each read or write is one disk attempt.
		DiskBreaker: bufferpool.BreakerConfig{
			Threshold: 8,
			Cooldown:  250 * time.Millisecond,
			Probes:    2,
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "lrukd:", err)
		if store != nil {
			_ = store.Close()
		}
		return 1
	}
	if database.Attached() {
		// Durable reopen: recovery replayed the WAL and the catalog
		// re-anchored the dataset; there is nothing to load.
		if ri, ok := database.Recovery(); ok {
			fmt.Fprintf(stdout, "lrukd: recovered %s (replayed=%d torn_tail=%v customers=%d)\n",
				*dataDir, ri.Replayed, ri.TailDropped, database.CustomerCount())
		}
		*customers = database.CustomerCount()
	} else {
		if err := database.LoadCustomers(*customers); err != nil {
			fmt.Fprintln(stderr, "lrukd:", err)
			database.Close()
			return 1
		}
		if *backend == "file" {
			// Checkpoint the freshly loaded dataset: the catalog is
			// published and the WAL truncated, so the population phase is
			// not replayed on every subsequent start.
			if err := database.FlushAll(); err != nil {
				fmt.Fprintln(stderr, "lrukd:", err)
				database.Close()
				return 1
			}
		}
	}

	srv := server.New(database, server.Config{
		Addr:              *addr,
		Workers:           *workers,
		QueueDepth:        *queue,
		DrainTimeout:      *drain,
		MaxRequestTimeout: *maxReq,
		Obs:               reg,
		NodeID:            *nodeID,
		View:              view,
		Spans:             spanRec,
		SlowThreshold:     *slowThr,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintln(stderr, "lrukd:", err)
		database.Close()
		return 1
	}
	var serving atomic.Bool
	serving.Store(true)
	cfg := srv.Addr()
	node := ""
	if *nodeID != "" {
		node = fmt.Sprintf(" node=%s", *nodeID)
	}
	fmt.Fprintf(stdout, "lrukd: serving on %s (customers=%d frames=%d k=%d workers=%d queue=%d%s)\n",
		cfg, *customers, *frames, *k, *workers, *queue, node)

	// The observability plane is a separate HTTP listener: /metrics and
	// pprof never compete with page traffic for the wire protocol's slots,
	// and an operator can firewall the two ports independently.
	var obsSrv *http.Server
	if reg != nil {
		opts := []obs.HandlerOption{obs.WithHealth(func() obs.Health {
			return obs.Health{
				Serving:      serving.Load(),
				ViewEpoch:    srv.Stats().ViewEpoch,
				RecoveryDone: true, // db.Open returned: any WAL replay is behind us
				Node:         *nodeID,
			}
		})}
		if spanRec != nil {
			opts = append(opts, obs.WithSpans(spanRec))
		}
		mux := obs.Handler(reg, opts...)
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(database.EvictionTrace())
		})
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "lrukd: obs listen:", err)
			_ = srv.Close()
			database.Close()
			return 1
		}
		obsSrv = &http.Server{Handler: mux}
		go func() { _ = obsSrv.Serve(ln) }()
		fmt.Fprintf(stdout, "lrukd: observability on %s\n", ln.Addr())
	}

	<-ctx.Done()
	serving.Store(false) // /healthz flips to 503 before the drain begins
	fmt.Fprintln(stdout, "lrukd: draining")

	code := 0
	if obsSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := obsSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(stderr, "lrukd: obs close:", err)
			code = 1
		}
		cancel()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, "lrukd: server close:", err)
		code = 1
	}
	if err := database.Close(); err != nil {
		fmt.Fprintln(stderr, "lrukd: db close:", err)
		code = 1
	}
	// The drain contract: nothing we started survives shutdown. The grace
	// period absorbs goroutines mid-exit (timers, conn teardown).
	if err := leakcheck.Wait(baseline, 3*time.Second); err != nil {
		fmt.Fprintln(stderr, "lrukd:", err)
		code = 1
	}
	if code == 0 {
		fmt.Fprintln(stdout, "lrukd: clean shutdown")
	}
	return code
}
