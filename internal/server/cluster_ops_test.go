package server

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// twoNodeView is a view naming this server plus a phantom peer, so some
// keys are owned here and some are MOVED. Returns the view and one key
// of each kind.
func twoNodeView(t *testing.T, selfID string, keys int64) (wire.View, int64, int64) {
	t.Helper()
	v := wire.View{Epoch: 1, Nodes: []wire.NodeAddr{
		{ID: selfID, Addr: "127.0.0.1:1"},
		{ID: "phantom", Addr: "127.0.0.1:2"},
	}}
	ring := cluster.NewRing(v)
	mine, theirs := int64(-1), int64(-1)
	for k := int64(0); k < keys && (mine < 0 || theirs < 0); k++ {
		if ring.Owner(k) == selfID {
			if mine < 0 {
				mine = k
			}
		} else if theirs < 0 {
			theirs = k
		}
	}
	if mine < 0 || theirs < 0 {
		t.Fatalf("keyspace of %d keys did not split across 2 nodes", keys)
	}
	return v, mine, theirs
}

func TestViewGetSetRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	srv, _ := startServer(t, db.Config{Frames: 64}, Config{NodeID: "n0"}, 50)
	cl := dial(t, srv)
	ctx := context.Background()

	// Standalone: empty epoch-0 view.
	v, err := cl.ViewGet(ctx)
	if err != nil {
		t.Fatalf("view get: %v", err)
	}
	if v.Epoch != 0 || len(v.Nodes) != 0 {
		t.Fatalf("standalone view = %+v, want empty epoch 0", v)
	}

	// Install epoch 2; the reply echoes the adopted epoch.
	v2 := wire.View{Epoch: 2, Nodes: []wire.NodeAddr{{ID: "n0", Addr: srv.Addr().String()}}}
	epoch, err := cl.ViewSet(ctx, v2)
	if err != nil {
		t.Fatalf("view set: %v", err)
	}
	if epoch != 2 {
		t.Errorf("adopt returned epoch %d, want 2", epoch)
	}
	got, err := cl.ViewGet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 || len(got.Nodes) != 1 || got.Nodes[0].ID != "n0" {
		t.Errorf("held view = %+v", got)
	}

	// An older (or equal) epoch is refused: the reply carries the epoch
	// still held, and the view is unchanged.
	older := wire.View{Epoch: 1, Nodes: []wire.NodeAddr{{ID: "stale", Addr: "x:1"}}}
	epoch, err = cl.ViewSet(ctx, older)
	if err != nil {
		t.Fatalf("view set (stale): %v", err)
	}
	if epoch != 2 {
		t.Errorf("stale set returned epoch %d, want held 2", epoch)
	}
	if got, _ := cl.ViewGet(ctx); got.Epoch != 2 || got.Nodes[0].ID != "n0" {
		t.Errorf("view downgraded to %+v", got)
	}

	// Epoch 0 can never be installed over the wire.
	if _, err := cl.ViewSet(ctx, wire.View{}); !errors.Is(err, client.ErrBadRequest) {
		t.Errorf("epoch-0 view set = %v, want ErrBadRequest", err)
	}
}

func TestViewSetNeedsNodeID(t *testing.T) {
	leakcheck.Check(t)
	srv, _ := startServer(t, db.Config{Frames: 64}, Config{}, 10)
	cl := dial(t, srv)
	v := wire.View{Epoch: 1, Nodes: []wire.NodeAddr{{ID: "n0", Addr: "x:1"}}}
	if _, err := cl.ViewSet(context.Background(), v); !errors.Is(err, client.ErrBadRequest) {
		t.Errorf("view set on id-less server = %v, want ErrBadRequest", err)
	}
}

// TestTracedBadRequestKeepsTracing: a bad request under a sampled trace
// (here a VIEW_SET to a node started without an id, as a rebalance onto
// such a node sends) surfaces as ErrBadRequest, and the connection keeps
// carrying the trace: the next traced GET leaves a second request span
// under the same trace id.
func TestTracedBadRequestKeepsTracing(t *testing.T) {
	leakcheck.Check(t)
	rec := obs.NewSpanRecorder("n0", 64)
	srv, _ := startServer(t, db.Config{Frames: 64}, Config{Spans: rec}, 10)
	cl := dial(t, srv)
	const traceID = 0xfeed
	ctx := obs.ContextWithTrace(context.Background(),
		obs.TraceContext{TraceID: traceID, SpanID: 0xbeef, Sampled: true})
	v := wire.View{Epoch: 1, Nodes: []wire.NodeAddr{{ID: "n0", Addr: "x:1"}}}
	if _, err := cl.ViewSet(ctx, v); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("traced view set on id-less server = %v, want ErrBadRequest", err)
	}
	if _, err := cl.Get(ctx, 1); err != nil {
		t.Fatalf("traced get: %v", err)
	}
	requests := 0
	for _, s := range rec.TraceSpans(traceID) {
		if s.Kind == obs.SpanRequest {
			requests++
		}
	}
	if requests != 2 {
		t.Errorf("trace %x holds %d request spans, want 2 (view set, get)", traceID, requests)
	}
}

func TestStartRequiresNodeIDWithView(t *testing.T) {
	leakcheck.Check(t)
	database, err := db.Open(db.Config{Frames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	v := wire.View{Epoch: 1, Nodes: []wire.NodeAddr{{ID: "n0", Addr: "x:1"}}}
	srv := New(database, Config{Addr: "127.0.0.1:0", View: &v})
	if err := srv.Start(); err == nil {
		srv.Close()
		t.Fatal("start accepted a view without a NodeID")
	}
}

func TestMovedOnNonOwnedKey(t *testing.T) {
	leakcheck.Check(t)
	const customers = 200
	v, mine, theirs := twoNodeView(t, "n0", customers)
	srv, _ := startServer(t, db.Config{Frames: 64}, Config{NodeID: "n0", View: &v}, customers)
	cl := dial(t, srv)
	ctx := context.Background()

	// Owned key: served normally.
	rec, err := cl.Get(ctx, mine)
	if err != nil {
		t.Fatalf("get owned key %d: %v", mine, err)
	}
	if got := int64(binary.LittleEndian.Uint64(rec)); got != mine {
		t.Errorf("record id = %d, want %d", got, mine)
	}

	// Non-owned key: MOVED, with the redirect naming the owner and
	// carrying this node's full view.
	_, err = cl.Get(ctx, theirs)
	if !errors.Is(err, client.ErrMoved) {
		t.Fatalf("get non-owned key %d = %v, want ErrMoved", theirs, err)
	}
	var se *client.Error
	if !errors.As(err, &se) {
		t.Fatalf("moved error is %T", err)
	}
	m, ok := se.MovedView()
	if !ok {
		t.Fatal("MOVED reply body did not decode")
	}
	if m.Owner != "phantom" || m.View.Epoch != 1 || len(m.View.Nodes) != 2 {
		t.Errorf("redirect = %+v", m)
	}
	if err := cl.Update(ctx, theirs, 0xEE); !errors.Is(err, client.ErrMoved) {
		t.Errorf("update non-owned key = %v, want ErrMoved", err)
	}

	// Admin plane is never ownership-checked: scan, stats, flush, and the
	// handoff range ops all work regardless of the ring.
	if _, err := cl.Scan(ctx); err != nil {
		t.Errorf("scan: %v", err)
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Errorf("stats: %v", err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Errorf("flush: %v", err)
	}
	entries, err := cl.RangeRead(ctx, theirs, theirs+1)
	if err != nil {
		t.Fatalf("range read of non-owned key: %v", err)
	}
	if len(entries) != 1 || entries[0].Key != theirs {
		t.Errorf("range read entries = %+v", entries)
	}
}

func TestRangeReadWriteRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	const customers = 100
	srv, _ := startServer(t, db.Config{Frames: 64}, Config{NodeID: "n0"}, customers)
	cl := dial(t, srv)
	ctx := context.Background()

	// The full window returns every loaded key once, in order.
	entries, err := cl.RangeRead(ctx, 0, customers)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != customers {
		t.Fatalf("range read returned %d entries, want %d", len(entries), customers)
	}
	for i, e := range entries {
		if e.Key != int64(i) {
			t.Fatalf("entries[%d].Key = %d", i, e.Key)
		}
	}

	// A window past the population returns only existing keys.
	entries, err = cl.RangeRead(ctx, customers-5, customers+50)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Errorf("tail window returned %d entries, want 5", len(entries))
	}

	// Updates are visible to RANGE_READ and RANGE_WRITE state is visible
	// to GET: the two planes see the same store.
	if err := cl.Update(ctx, 7, 0xCD); err != nil {
		t.Fatal(err)
	}
	entries, err = cl.RangeRead(ctx, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Fill != 0xCD {
		t.Fatalf("after update, range read = %+v", entries)
	}

	batch := []wire.RangeEntry{{Key: 3, Fill: 0x11}, {Key: 4, Fill: 0x22}}
	applied, err := cl.RangeWrite(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Errorf("applied = %d, want 2", applied)
	}
	for _, e := range batch {
		rec, err := cl.Get(ctx, e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if rec[8] != e.Fill {
			t.Errorf("key %d fill = %#x, want %#x", e.Key, rec[8], e.Fill)
		}
	}

	// An oversized window is refused before any disk work.
	if _, err := cl.RangeRead(ctx, 0, wire.MaxRangeEntries+1); !errors.Is(err, client.ErrBadRequest) {
		t.Errorf("oversized window = %v, want ErrBadRequest", err)
	}

	// Range ops count into the server stats.
	reply, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Server.RangeKeysOut == 0 || reply.Server.RangeKeysIn != 2 {
		t.Errorf("range counters out=%d in=%d, want out>0 in=2",
			reply.Server.RangeKeysOut, reply.Server.RangeKeysIn)
	}
}
