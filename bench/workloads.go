package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

// All workloads: 2,000-byte records (2 per page), K = 2, 404 frames — the
// lrukd defaults — and two closed-loop clients (one per core).
const (
	frames     = 404
	recordSize = 2000
	numClients = 2
	// measuredWindows follow one discarded warm-up window of the same size.
	// The issue asked for 7 of 4-5 s; the driver's cap (92 runs in 3,420 s,
	// on a machine that is at times 40 % slower) leaves room for 5 of 3 s.
	measuredWindows = 5
	// setupRepeats is how many times the untraced run sets the system up;
	// setup_s is the quickest and the last one serves the run.
	setupRepeats = 7
)

type kind int

const (
	kindEmbed   kind = iota // in-process db.LookupCtx / UpdateCustomerCtx
	kindNet                 // one server.Server, one client.Client per bench client
	kindCluster             // three server.Server nodes, one shared cluster.Client
)

// workloadDef is one frozen workload. OpsPerSec is the per-client op count
// per second of -seconds, calibrated once on the 2-core reference machine so
// a window of seconds/measuredWindows lasts about that long; a window is
// that fixed count, not a duration, so both commits do identical work.
type workloadDef struct {
	Name      string
	Why       string
	Kind      kind
	Durable   bool // storage/file backend in a fresh data dir
	Customers int
	OpsPerSec int
	// StreamCap bounds the pre-generated stream; a shorter stream than the
	// run needs is cycled, which is harmless only when every page it names
	// stays resident (the hot-read workloads).
	StreamCap int
	// HotPages is the number of data pages the workload expects to stay
	// resident (asserted against the pool size in keys_test.go); fewer than
	// all of them means the workload is meant to miss.
	HotPages int
	// MaxWALBytes sizes the file backend's forced checkpoints.
	MaxWALBytes int64
	// Dist is the page distribution of the streams and UpdateShare the
	// fraction of ops that are UPDATEs.
	Dist        dist
	UpdateShare float64
}

// dist names a page distribution from keys.go.
type dist int

const (
	distHotUniform dist = iota // uniform over the first HotPages pages
	distTwoPool                // paper 4.1: HotPages hot pages against the rest
	distZipf                   // paper 4.2: self-similar 80-20 over all pages
)

func (w *workloadDef) dataPages() int { return w.Customers / recordsPerPage }

// Stream pre-generates n ops of the client's stream from the seed.
func (w *workloadDef) Stream(seed uint64, client, n int) []Op {
	switch w.Dist {
	case distTwoPool:
		return twoPoolStream(seed, client, w.HotPages, w.dataPages(), w.UpdateShare, n)
	case distZipf:
		return zipfStream(seed, client, w.dataPages(), w.UpdateShare, n)
	}
	return hotReadStream(seed, client, w.HotPages, n)
}

// storeConfig is the file backend's configuration: lrukd's defaults plus the
// workload's WAL bound.
func (w *workloadDef) storeConfig() file.Config {
	return file.Config{VerifyReads: true, MaxWALBytes: w.MaxWALBytes}
}

var workloads = []*workloadDef{
	{
		Name: "embed_hot_read",
		Why:  "in-process GETs over a resident 300-customer hot set: pool hit probe, replacer access recording and btree/heapfile copy do all the work; storage and network none",
		Kind: kindEmbed, Customers: 10000, OpsPerSec: 110000, StreamCap: 1 << 20, HotPages: 150,
	},
	{
		Name: "embed_twopool_mixed",
		Why:  "in-process paper 4.1 two-pool stream (100 hot pages vs 9,900 cold, 404 frames) with 10% updates: miss path, Evict/HIST, dirty write-back and storage wrappers dominate",
		Kind: kindEmbed, Customers: 20000, OpsPerSec: 85000, HotPages: 100, Dist: distTwoPool, UpdateShare: 0.10,
	},
	{
		Name: "cluster_hot_read",
		Why:  "three server nodes on loopback TCP behind cluster.Client, all-resident GETs: wire codec, client, admission queue hand-off, ring lookup and connection pool are most of each op",
		Kind: kindCluster, Customers: 10000, OpsPerSec: 30000, StreamCap: 1 << 20, HotPages: 150,
	},
	{
		// 600 customers, not the 10,000 first planned: every page must stay
		// resident. With evictions, an UPDATE can fail ("flush page N: page
		// not resident") when its page is evicted between the update's unpin
		// and the durable flush that follows — seen once in ~25 runs of a
		// 4,000-customer version — and a benchmark operation may never fail.
		Name: "net_durable_mixed",
		Why:  "one server over storage/file, Zipf 80-20 over 300 resident pages, 10% updates acknowledged after WAL fsync: WAL append, group commit and checkpoints dominate; reads share the pool with writes",
		Kind: kindNet, Durable: true, Customers: 600, OpsPerSec: 9000, HotPages: 300, MaxWALBytes: 16 << 20,
		Dist: distZipf, UpdateShare: 0.10,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// node is one database and, for the networked kinds, the server over it.
type node struct {
	id   string
	db   *db.DB
	srv  *server.Server
	addr string
}

// system is one workload's assembled service plus the clients into it.
type system struct {
	def     *workloadDef
	nodes   []*node
	view    wire.View
	cluster *cluster.Client
	conns   []*client.Client // kindNet: one per bench client
	dir     string           // durable: the data dir
}

// dbConfig is the harness's whole say over db.Config: sizing (Frames, the
// backend) and lrukd's retry/breaker posture. Every other field stays at its
// zero value so a later change of a default is measured, not bypassed.
func dbConfig(backend storage.Backend) db.Config {
	return db.Config{
		Frames:  frames,
		Backend: backend,
		DiskRetry: bufferpool.RetryConfig{
			Attempts:  3,
			BaseDelay: 500 * time.Microsecond,
			MaxDelay:  5 * time.Millisecond,
			Seed:      1,
		},
		DiskBreaker: bufferpool.BreakerConfig{
			Threshold: 8,
			Cooldown:  250 * time.Millisecond,
			Probes:    2,
		},
	}
}

// openNode opens, loads and (networked kinds) serves one node. tr, when
// non-nil, slips the span-recording backend under the database.
func openNode(def *workloadDef, id, dir string, tr *tracer) (*node, error) {
	n := &node{id: id}
	var backend storage.Backend
	if def.Durable {
		st, err := file.OpenConfig(dir, def.storeConfig())
		if err != nil {
			return nil, err
		}
		backend = st
		if tr != nil {
			backend = &durableSpanBackend{spanBackend{Backend: st, t: tr}, st}
		}
	} else if tr != nil {
		backend = &spanBackend{Backend: sim.New(sim.ServiceModel{}), t: tr}
	}
	database, err := db.Open(dbConfig(backend))
	if err != nil {
		if backend != nil {
			_ = backend.Close()
		}
		return nil, err
	}
	n.db = database
	if err := database.LoadCustomers(def.Customers); err != nil {
		n.close()
		return nil, err
	}
	if def.Durable {
		// As lrukd does: checkpoint the freshly loaded population.
		if err := database.FlushAll(); err != nil {
			n.close()
			return nil, err
		}
	}
	if got, want := database.DataPages(), def.dataPages(); got != want {
		n.close()
		return nil, fmt.Errorf("bench: %d customers occupy %d data pages, want %d (%d records per page)",
			def.Customers, got, want, recordsPerPage)
	}
	if def.Kind != kindEmbed {
		cfg := server.Config{Addr: "127.0.0.1:0"}
		if def.Kind == kindCluster {
			cfg.NodeID = id
		}
		n.srv = server.New(database, cfg)
		if err := n.srv.Start(); err != nil {
			n.srv = nil
			n.close()
			return nil, err
		}
		n.addr = n.srv.Addr().String()
	}
	return n, nil
}

func (n *node) close() {
	if n.srv != nil {
		_ = n.srv.Close()
	}
	_ = n.db.Close() // closes the backend too
}

// setupSystem assembles the workload's service up to the point the warm-up
// window can start: databases loaded, servers listening, view installed,
// clients dialled.
func setupSystem(def *workloadDef, tr *tracer) (sys *system, err error) {
	sys = &system{def: def}
	defer func() {
		if err != nil {
			sys.close()
			sys = nil
		}
	}()
	if def.Durable {
		if err := os.MkdirAll("out", 0o755); err != nil {
			return nil, err
		}
		if sys.dir, err = os.MkdirTemp("out", "data-"); err != nil {
			return nil, err
		}
	}
	nodes := 1
	if def.Kind == kindCluster {
		nodes = 3
	}
	for i := 0; i < nodes; i++ {
		n, err := openNode(def, fmt.Sprintf("n%d", i), sys.dir, tr)
		if err != nil {
			return nil, err
		}
		sys.nodes = append(sys.nodes, n)
	}
	ctx := context.Background()
	switch def.Kind {
	case kindNet:
		for c := 0; c < numClients; c++ {
			conn, err := client.Dial(sys.nodes[0].addr)
			if err != nil {
				return nil, err
			}
			sys.conns = append(sys.conns, conn)
		}
	case kindCluster:
		sys.view = wire.View{Epoch: 1}
		for _, n := range sys.nodes {
			sys.view.Nodes = append(sys.view.Nodes, wire.NodeAddr{ID: n.id, Addr: n.addr})
		}
		for _, n := range sys.nodes {
			if err := installView(ctx, n.addr, sys.view); err != nil {
				return nil, err
			}
		}
		// A client boots from an epoch-0 spec and learns the servers' view.
		sys.cluster, err = cluster.New(cluster.Config{View: wire.View{Nodes: sys.view.Nodes}})
		if err != nil {
			return nil, err
		}
		if err := sys.cluster.Refresh(ctx); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func installView(ctx context.Context, addr string, v wire.View) error {
	conn, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = conn.ViewSet(ctx, v)
	return err
}

// close tears the system down and removes the data dir.
func (s *system) close() {
	for _, c := range s.conns {
		_ = c.Close()
	}
	if s.cluster != nil {
		_ = s.cluster.Close()
	}
	for _, n := range s.nodes {
		n.close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// entry returns the client-observed entry points of the workload's kind
// for bench client c.
func (s *system) entry(c int) *entry {
	switch s.def.Kind {
	case kindNet:
		return &entry{s.conns[c].Get, s.conns[c].Update}
	case kindCluster:
		return &entry{s.cluster.Get, s.cluster.Update}
	}
	return dbEntry(s.nodes[0].db)
}

func dbEntry(d *db.DB) *entry { return &entry{d.LookupCtx, d.UpdateCustomerCtx} }
