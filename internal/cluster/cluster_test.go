// Integration tests for the cluster tier: real servers on loopback
// ports, a real cluster client, real rebalances. External test package
// because internal/server imports internal/cluster for the ring.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// testNode is one lrukd node under test: its database, server, and the
// identity it serves under.
type testNode struct {
	id   string
	db   *db.DB
	srv  *server.Server
	addr string
}

// startNodes boots n nodes on random loopback ports, each loading the
// full customer population (every node holds every record; ownership
// decides who *serves* it), then installs the same epoch-1 view on all
// of them. Cleanup tears everything down in reverse.
func startNodes(t *testing.T, n, customers int, dbCfg db.Config, srvCfg server.Config) ([]*testNode, wire.View) {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		id := fmt.Sprintf("n%d", i)
		database, err := db.Open(dbCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := database.LoadCustomers(customers); err != nil {
			database.Close()
			t.Fatal(err)
		}
		cfg := srvCfg
		cfg.Addr = "127.0.0.1:0"
		cfg.NodeID = id
		srv := server.New(database, cfg)
		if err := srv.Start(); err != nil {
			database.Close()
			t.Fatal(err)
		}
		nd := &testNode{id: id, db: database, srv: srv, addr: srv.Addr().String()}
		nodes[i] = nd
		t.Cleanup(func() {
			_ = nd.srv.Close() // double-close after a test kill is harmless
			_ = nd.db.Close()
		})
	}
	view := wire.View{Epoch: 1}
	for _, nd := range nodes {
		view.Nodes = append(view.Nodes, wire.NodeAddr{ID: nd.id, Addr: nd.addr})
	}
	ctx := context.Background()
	for _, nd := range nodes {
		cl, err := client.Dial(nd.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ViewSet(ctx, view); err != nil {
			cl.Close()
			t.Fatalf("install view on %s: %v", nd.id, err)
		}
		cl.Close()
	}
	return nodes, view
}

func clusterClient(t *testing.T, view wire.View, cfg cluster.Config) *cluster.Client {
	t.Helper()
	cfg.View = view
	cc, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// Routing sanity: a correctly bootstrapped client serves every key with
// zero redirects, spreads requests across all nodes, and the admin fan
// -outs see every member.
func TestClusterClientRoutesWithoutRedirects(t *testing.T) {
	leakcheck.Check(t)
	const customers = 300
	nodes, view := startNodes(t, 3, customers, db.Config{Frames: 64}, server.Config{})
	// Epoch-0 bootstrap spec, as a fresh client would hold it.
	boot := wire.View{Epoch: 0, Nodes: view.Nodes}
	cc := clusterClient(t, boot, cluster.Config{})
	ctx := context.Background()

	for k := int64(0); k < customers; k++ {
		if err := cc.Update(ctx, k, byte(k%200)+1); err != nil {
			t.Fatalf("update key %d: %v", k, err)
		}
	}
	for k := int64(0); k < customers; k++ {
		rec, err := cc.Get(ctx, k)
		if err != nil {
			t.Fatalf("get key %d: %v", k, err)
		}
		if rec[8] != byte(k%200)+1 {
			t.Fatalf("key %d fill = %#x, want %#x", k, rec[8], byte(k%200)+1)
		}
	}

	counters := cc.Counters()
	var moved, transport uint64
	for id, c := range counters {
		moved += c.Moved
		transport += c.Transport
		if c.OK == 0 {
			t.Errorf("node %s served nothing; counters %+v", id, c)
		}
	}
	if moved != 0 || transport != 0 {
		t.Errorf("clean run saw %d moved, %d transport errors", moved, transport)
	}

	if n, err := cc.Scan(ctx); err != nil || n != customers {
		t.Errorf("scan = %d, %v; want %d", n, err, customers)
	}
	stats, err := cc.StatsAll(ctx)
	if err != nil {
		t.Fatalf("stats fan-out: %v", err)
	}
	if len(stats) != len(nodes) {
		t.Errorf("stats for %d nodes, want %d", len(stats), len(nodes))
	}
}

// A stale client (old epoch, wrong ring) is healed by a single MOVED
// redirect: the reply carries the server's whole view, the client adopts
// it, and the retried request lands on the right node.
func TestMovedRedirectPatchesStaleClient(t *testing.T) {
	leakcheck.Check(t)
	const customers = 300
	nodes, view := startNodes(t, 3, customers, db.Config{Frames: 64}, server.Config{})

	// The cluster shrinks to {n0, n1}; every node learns the new view.
	// No handoff needed here: every node already holds every record.
	shrunk, err := cluster.Without(view, "n2")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, nd := range nodes {
		cl, err := client.Dial(nd.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ViewSet(ctx, shrunk); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}

	// The client still believes the 3-node epoch-1 world.
	cc := clusterClient(t, view, cluster.Config{})
	for k := int64(0); k < customers; k++ {
		if _, err := cc.Get(ctx, k); err != nil {
			t.Fatalf("get key %d through stale client: %v", k, err)
		}
	}
	if got := cc.View().Epoch; got != shrunk.Epoch {
		t.Errorf("client epoch = %d after redirects, want %d", got, shrunk.Epoch)
	}
	var moved uint64
	for _, c := range cc.Counters() {
		moved += c.Moved
	}
	if moved == 0 {
		t.Error("stale client saw no MOVED redirects")
	}
	// n2 no longer owns anything: a direct request is refused with MOVED.
	direct, err := client.Dial(nodes[2].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	var sawMoved bool
	for k := int64(0); k < 20; k++ {
		if _, err := direct.Get(ctx, k); errors.Is(err, client.ErrMoved) {
			sawMoved = true
			break
		}
	}
	if !sawMoved {
		t.Error("removed node still serves keys directly")
	}
}

// The zero-acked-loss property, end to end: concurrent writers keep
// updating through the cluster client while a rebalance removes a node.
// Afterwards every key's value is at least the last acknowledged fill —
// an acked update survived the handoff — and never beyond the last
// attempted one.
func TestRebalanceRemoveUnderWrites(t *testing.T) {
	leakcheck.Check(t)
	const (
		customers = 600
		writers   = 4
		rounds    = 40
	)
	nodes, view := startNodes(t, 3, customers, db.Config{Frames: 128}, server.Config{})
	cc := clusterClient(t, view, cluster.Config{}.WithRetry(12, time.Millisecond, 50*time.Millisecond))
	ctx := context.Background()

	// Each writer owns a disjoint key slice and advances its keys' fills
	// 1, 2, 3, ... recording the last acked and last attempted value.
	perWriter := customers / writers
	acked := make([]atomic.Uint32, customers)
	attempted := make([]atomic.Uint32, customers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := int64(w * perWriter)
			for r := 1; r <= rounds; r++ {
				select {
				case <-stop:
					return
				default:
				}
				for k := lo; k < lo+int64(perWriter); k += 7 {
					fill := uint32(r)
					attempted[k].Store(fill)
					if err := cc.Update(ctx, k, byte(fill)); err == nil {
						acked[k].Store(fill)
					}
				}
			}
		}(w)
	}

	// Mid-write, rebalance n2 out of the cluster. Small batches force
	// several copy windows, widening the bounce window the writers must
	// ride out.
	time.Sleep(10 * time.Millisecond)
	shrunk, err := cluster.Without(view, "n2")
	if err != nil {
		t.Fatal(err)
	}
	err = cluster.Rebalance(ctx, view, shrunk, cluster.RebalanceConfig{
		Keys: customers,
		Log:  t.Logf,
	}.WithBatchSize(128))
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	close(stop)
	wg.Wait()

	// Every write the cluster acknowledged must be visible (monotonic
	// fills make "at least acked" the survival criterion); nothing can
	// exceed the last attempt.
	for k := int64(0); k < customers; k++ {
		a := acked[k].Load()
		if a == 0 {
			continue // never successfully written
		}
		rec, err := cc.Get(ctx, k)
		if err != nil {
			t.Fatalf("get key %d after rebalance: %v", k, err)
		}
		got := uint32(rec[8])
		if got < a || got > attempted[k].Load() {
			t.Errorf("key %d: fill %d outside [acked %d, attempted %d] — acked update lost",
				k, got, a, attempted[k].Load())
		}
	}

	// The removed node refuses its former keys; survivors hold the new
	// epoch.
	direct, err := client.Dial(nodes[2].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	var refused bool
	for k := int64(0); k < 50; k++ {
		if _, err := direct.Get(ctx, k); errors.Is(err, client.ErrMoved) {
			refused = true
			break
		}
	}
	if !refused {
		t.Error("removed node still serving after rebalance")
	}
	for _, nd := range nodes[:2] {
		cl, err := client.Dial(nd.addr)
		if err != nil {
			t.Fatal(err)
		}
		v, err := cl.ViewGet(ctx)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Epoch != shrunk.Epoch || len(v.Nodes) != 2 {
			t.Errorf("node %s holds view %+v, want epoch %d with 2 nodes", nd.id, v, shrunk.Epoch)
		}
	}
}

// The overload story at cluster scale: a burst against tiny nodes sheds
// but completes; a node killed mid-traffic surfaces as transport errors
// until the survivors' view routes around it; the returned node rejoins
// and serves again.
func TestClusterOverloadKillReroute(t *testing.T) {
	leakcheck.Check(t)
	const customers = 300
	dbCfg := db.Config{Frames: 16}
	// Capacity (2 workers + 2 queue slots per node) is the constraint here;
	// slow-disk injection lives in the single-node overload test.
	srvCfg := server.Config{Workers: 2, QueueDepth: 2}
	nodes, view := startNodes(t, 3, customers, dbCfg, srvCfg)
	ctx := context.Background()

	// --- Phase 1: burst beyond 2+2 slots per node; with one attempt and
	// no backoff the shed is visible, with retries it is absorbed. ---
	curt := clusterClient(t, view, cluster.Config{}.WithRetry(1, 0, 0))
	var wg sync.WaitGroup
	var okN, busyN, otherN atomic.Uint64
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := curt.Get(ctx, int64(i*5%customers))
			switch {
			case err == nil:
				okN.Add(1)
			case errors.Is(err, client.ErrBusy):
				busyN.Add(1)
			default:
				otherN.Add(1)
			}
		}(i)
	}
	wg.Wait()
	t.Logf("burst: %d ok, %d busy, %d other", okN.Load(), busyN.Load(), otherN.Load())
	if otherN.Load() > 0 {
		t.Errorf("burst produced %d non-BUSY failures", otherN.Load())
	}
	if okN.Load() == 0 {
		t.Error("burst completed nothing")
	}
	// Shed is load-dependent; don't require it, but a patient client must
	// absorb whatever the curt one saw: every key, zero errors.
	patient := clusterClient(t, view, cluster.Config{}.WithRetry(10, time.Millisecond, 0))
	for k := int64(0); k < customers; k++ {
		if _, err := patient.Get(ctx, k); err != nil {
			t.Fatalf("patient get key %d: %v", k, err)
		}
	}

	// --- Phase 2: kill n2. Its keys fail with transport errors; pushing
	// the survivor view onto n0/n1 lets the client's failure-triggered
	// refresh route around the corpse. ---
	if err := nodes[2].srv.Close(); err != nil {
		t.Fatalf("kill n2: %v", err)
	}
	ring := cluster.NewRing(view)
	var deadKey int64 = -1
	for k := int64(0); k < customers; k++ {
		if ring.Owner(k) == "n2" {
			deadKey = k
			break
		}
	}
	if deadKey < 0 {
		t.Fatal("no key owned by n2")
	}
	_, err := patient.Get(ctx, deadKey)
	if err == nil {
		t.Fatal("get of a dead node's key succeeded with no reroute possible")
	}
	if !errors.Is(err, client.ErrTransport) {
		t.Fatalf("dead node error = %v, want ErrTransport", err)
	}

	shrunk, err := cluster.Without(view, "n2")
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes[:2] {
		cl, err := client.Dial(nd.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ViewSet(ctx, shrunk); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}
	// The very next failure against n2 refreshes from a survivor and
	// reroutes; from then on every key is served by the two survivors.
	for k := int64(0); k < customers; k++ {
		if _, err := patient.Get(ctx, k); err != nil {
			t.Fatalf("get key %d after reroute: %v", k, err)
		}
	}
	if got := patient.View().Epoch; got != shrunk.Epoch {
		t.Errorf("client epoch = %d, want %d", got, shrunk.Epoch)
	}

	// --- Phase 3: n2 returns (fresh port, same database), rejoins via a
	// newer view, and serves again. ---
	re := server.New(nodes[2].db, server.Config{
		Addr: "127.0.0.1:0", NodeID: "n2",
		Workers: srvCfg.Workers, QueueDepth: srvCfg.QueueDepth,
	})
	if err := re.Start(); err != nil {
		t.Fatalf("restart n2: %v", err)
	}
	t.Cleanup(func() { _ = re.Close() })
	rejoined, err := cluster.With(shrunk, "n2", re.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{nodes[0].addr, nodes[1].addr, re.Addr().String()}
	for _, addr := range targets {
		cl, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ViewSet(ctx, rejoined); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}
	if err := patient.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < customers; k++ {
		if _, err := patient.Get(ctx, k); err != nil {
			t.Fatalf("get key %d after rejoin: %v", k, err)
		}
	}
	// The rejoined node is serving its share again.
	reCl, err := client.Dial(re.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reCl.Close()
	reply, err := reCl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Server.Requests == 0 {
		t.Error("rejoined node served no requests")
	}
}

// A client bootstrapped from a stale spec that names a dead, removed
// node discovers the truth on its own: the transport failure triggers a
// view refresh from a surviving member.
func TestClientRefreshOnNodeDown(t *testing.T) {
	leakcheck.Check(t)
	const customers = 200
	nodes, view := startNodes(t, 3, customers, db.Config{Frames: 64}, server.Config{})
	ctx := context.Background()

	// The cluster already moved on: n2 was removed (epoch 2 on the
	// survivors) and then died.
	shrunk, err := cluster.Without(view, "n2")
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes[:2] {
		cl, err := client.Dial(nd.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ViewSet(ctx, shrunk); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}
	if err := nodes[2].srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The client's bootstrap spec still lists all three nodes at epoch 0.
	boot := wire.View{Epoch: 0, Nodes: view.Nodes}
	cc := clusterClient(t, boot, cluster.Config{}.WithRetry(6, time.Millisecond, 0))
	for k := int64(0); k < customers; k++ {
		if _, err := cc.Get(ctx, k); err != nil {
			t.Fatalf("get key %d through dead-node bootstrap: %v", k, err)
		}
	}
	if got := cc.View().Epoch; got != shrunk.Epoch {
		t.Errorf("client epoch = %d, want %d", got, shrunk.Epoch)
	}
}
