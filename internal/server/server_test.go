package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// startServer opens a database, loads customers, and serves it on a random
// loopback port, tearing everything down at cleanup.
func startServer(t *testing.T, dbCfg db.Config, srvCfg Config, customers int) (*Server, *db.DB) {
	t.Helper()
	database, err := db.Open(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := database.LoadCustomers(customers); err != nil {
		database.Close()
		t.Fatal(err)
	}
	srvCfg.Addr = "127.0.0.1:0"
	srv := New(database, srvCfg)
	if err := srv.Start(); err != nil {
		database.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := database.Close(); err != nil {
			t.Errorf("db close: %v", err)
		}
	})
	return srv, database
}

func dial(t *testing.T, srv *Server) *client.Client {
	t.Helper()
	cl, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestServeBasicOps(t *testing.T) {
	leakcheck.Check(t)
	const customers = 100
	srv, _ := startServer(t, db.Config{Frames: 64}, Config{}, customers)
	cl := dial(t, srv)
	ctx := context.Background()

	// GET: the record's first 8 bytes are its little-endian CUST-ID.
	rec, err := cl.Get(ctx, 42)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got := int64(binary.LittleEndian.Uint64(rec)); got != 42 {
		t.Errorf("record id = %d, want 42", got)
	}

	// UPDATE then GET observes the fill.
	if err := cl.Update(ctx, 42, 0xAB); err != nil {
		t.Fatalf("update: %v", err)
	}
	rec, err = cl.Get(ctx, 42)
	if err != nil {
		t.Fatalf("get after update: %v", err)
	}
	if rec[8] != 0xAB || rec[len(rec)-1] != 0xAB {
		t.Errorf("update not visible: filler bytes %x, %x", rec[8], rec[len(rec)-1])
	}

	// SCAN counts every record.
	n, err := cl.Scan(ctx)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if n != customers {
		t.Errorf("scan counted %d, want %d", n, customers)
	}

	// Missing key maps to the typed not-found error.
	if _, err := cl.Get(ctx, customers+10); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("get missing: err = %v, want ErrNotFound", err)
	}

	// FLUSH succeeds and STATS reports the traffic.
	if err := cl.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Server.Requests < 6 {
		t.Errorf("server requests = %d, want >= 6", stats.Server.Requests)
	}
	if stats.Server.Statuses["ok"] == 0 || stats.Server.Statuses["not_found"] == 0 {
		t.Errorf("status counters not populated: %v", stats.Server.Statuses)
	}
	if total := stats.DB.Pool.Hits + stats.DB.Pool.Misses; total == 0 {
		t.Error("db snapshot shows no pool traffic")
	}
	if stats.DB.DataPages == 0 || stats.DB.IndexPages == 0 {
		t.Errorf("db snapshot missing page counts: %+v", stats.DB)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	// Race coverage for the full remote path: many clients interleaving
	// reads and in-place updates over a small key space, so the same heap
	// pages are concurrently read and written through the pool.
	leakcheck.Check(t)
	const (
		customers = 64
		clients   = 8
		ops       = 200
	)
	srv, _ := startServer(t, db.Config{Frames: 32}, Config{Workers: 4, QueueDepth: 64}, customers)

	var wg sync.WaitGroup
	var failures atomic.Uint64
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr().String())
			if err != nil {
				t.Errorf("client %d: dial: %v", g, err)
				failures.Add(1)
				return
			}
			defer cl.Close()
			ctx := context.Background()
			for i := 0; i < ops; i++ {
				id := int64((g*31 + i*7) % customers)
				if (g+i)%4 == 0 {
					if err := cl.Update(ctx, id, byte(g)); err != nil {
						t.Errorf("client %d: update %d: %v", g, id, err)
						failures.Add(1)
						return
					}
					continue
				}
				rec, err := cl.Get(ctx, id)
				if err != nil {
					t.Errorf("client %d: get %d: %v", g, id, err)
					failures.Add(1)
					return
				}
				if got := int64(binary.LittleEndian.Uint64(rec)); got != id {
					t.Errorf("client %d: record id = %d, want %d", g, got, id)
					failures.Add(1)
					return
				}
				// The filler must be uniform — a torn read through a
				// concurrent in-place update would show mixed bytes.
				for j := 9; j < len(rec); j++ {
					if rec[j] != rec[8] {
						t.Errorf("client %d: torn record %d: byte %d is %x, byte 8 is %x",
							g, id, j, rec[j], rec[8])
						failures.Add(1)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d client failures", failures.Load())
	}
}

func TestRequestDeadlineSurfacesAsStatus(t *testing.T) {
	leakcheck.Check(t)
	// A disk pause makes misses slow; gate it so the load phase is fast.
	// The load writes heap pages past the pool, so an early key's heap page
	// is cold; K=1 keeps eviction strictly LRU, so reading the last 56
	// customers' 28 heap pages through 16 frames evicts the early keys'
	// leaf too — the lookup's descent crosses at least two cold pages.
	var slow atomic.Bool
	dbCfg := db.Config{
		Frames: 16,
		K:      1,
		Backend: sim.New(sim.ServiceModel{Delay: func(int64) {
			if slow.Load() {
				time.Sleep(20 * time.Millisecond)
			}
		}}),
	}
	srv, _ := startServer(t, dbCfg, Config{}, 256)
	cl := dial(t, srv)
	for id := int64(200); id < 256; id++ {
		if _, err := cl.Get(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	slow.Store(true)

	// The budget expires during the first cold read (the pool lets an
	// in-flight load complete); the next fetch on the path sees the dead
	// context and the server answers with the deadline status (mapped to
	// context.DeadlineExceeded) — it must not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := cl.Get(ctx, 10)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired budget: err = %v, want DeadlineExceeded", err)
	}
	var remote *client.Error
	if !errors.As(err, &remote) {
		t.Fatalf("deadline error did not come from the server: %v", err)
	}

	// The connection survives a deadline reply: the next request works.
	slow.Store(false)
	if _, err := cl.Get(context.Background(), 1); err != nil {
		t.Fatalf("get after deadline reply: %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	leakcheck.Check(t)
	srv, _ := startServer(t, db.Config{Frames: 32}, Config{}, 16)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header advertising 1 MiB: the server must reply BadRequest
	// and close, never allocate or read the body.
	if _, err := conn.Write([]byte{0x00, 0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, wire.MaxFrameDefault)
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Errorf("status = %v, want bad_request", resp.Status)
	}
	// The server closes its end afterwards.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(conn, wire.MaxFrameDefault); err == nil {
		t.Error("connection still open after protocol violation")
	}
}

func TestGracefulDrain(t *testing.T) {
	leakcheck.Check(t)
	var slow atomic.Bool
	dbCfg := db.Config{
		Frames: 16,
		Backend: sim.New(sim.ServiceModel{Delay: func(int64) {
			if slow.Load() {
				time.Sleep(30 * time.Millisecond)
			}
		}}),
	}
	database, err := db.Open(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(256); err != nil {
		t.Fatal(err)
	}
	srv := New(database, Config{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	cl, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	slow.Store(true)

	// Launch a request that is mid-flight when Close lands; it must
	// complete and deliver its response, not be severed.
	inflight := make(chan error, 1)
	go func() {
		_, err := cl.Get(context.Background(), 200)
		inflight <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the request reach a worker

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request during drain: %v", err)
	}

	// After drain: no new connections.
	if _, err := client.Dial(srv.Addr().String()); err == nil {
		t.Error("dial succeeded after Close")
	}
	// And idempotent close.
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestRequestAfterDrainBeginsGetsShutdown(t *testing.T) {
	leakcheck.Check(t)
	database, err := db.Open(db.Config{Frames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(16); err != nil {
		t.Fatal(err)
	}
	srv := New(database, Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Closing the database first: a request through the still-open server
	// maps db.ErrClosed to the shutdown status.
	cl := dial(t, srv)
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Get(context.Background(), 1)
	if !errors.Is(err, client.ErrShutdown) {
		t.Errorf("get on closed db: err = %v, want ErrShutdown", err)
	}
}

// tornRecord reads every page of b and reports the first customer record
// whose filler (bytes 8.., which an UPDATE sets to one byte) is not one
// byte repeated. It checks the pages whose header is that of a heap page
// holding two 2000-byte records (package heapfile's layout), which every
// heap page of an even-sized load is.
func tornRecord(b storage.Backend) error {
	buf := make([]byte, storage.PageSize)
	for p := 0; p < b.NumPages(); p++ {
		if err := b.Read(context.Background(), policy.PageID(p), buf); err != nil {
			return err
		}
		if binary.LittleEndian.Uint16(buf[0:2]) != 2 || binary.LittleEndian.Uint16(buf[2:4]) != storage.PageSize-4000 {
			continue
		}
		for s := 0; s < 2; s++ {
			off := int(binary.LittleEndian.Uint16(buf[4+4*s:]))
			rec := buf[off : off+2000]
			for i, c := range rec[8:] {
				if c != rec[8] {
					return fmt.Errorf("page %d slot %d: filler byte %d is %#x, byte 0 is %#x", p, s, i, c, rec[8])
				}
			}
		}
	}
	return nil
}

// TestFlushBarrier drives concurrent FLUSH and UPDATE traffic: everything
// completes without error, and after each FLUSH every record on disk is
// whole (a flush never copies a page out mid-update).
func TestFlushBarrier(t *testing.T) {
	leakcheck.Check(t)
	backend := sim.New(sim.ServiceModel{})
	srv, _ := startServer(t, db.Config{Frames: 32, Backend: backend}, Config{Workers: 4}, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	flushed := make(chan struct{}) // the updaters run until the flushes end
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				defer close(flushed)
			}
			cl, err := client.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			ctx := context.Background()
			if g == 0 {
				for i := 0; i < 50; i++ {
					if err := cl.Flush(ctx); err != nil {
						errs <- fmt.Errorf("flush: %w", err)
						return
					}
					if err := tornRecord(backend); err != nil {
						errs <- fmt.Errorf("after flush %d: %w", i, err)
						return
					}
				}
				return
			}
			for i := 0; ; i++ {
				select {
				case <-flushed:
					return
				default:
				}
				if err := cl.Update(ctx, int64((g*13+i)%64), byte(i)); err != nil {
					errs <- fmt.Errorf("update: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestErrResponseStatusMapping pins the error-to-status table: breaker
// outages are retryable unavailability, corruption and a full disk are
// permanent internal errors, and wrapping must not hide any of them.
func TestErrResponseStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want wire.Status
	}{
		{"breaker open", bufferpool.ErrDiskUnavailable, wire.StatusUnavailable},
		{"wrapped breaker", fmt.Errorf("fetch: %w", bufferpool.ErrDiskUnavailable), wire.StatusUnavailable},
		{"db closed", db.ErrClosed, wire.StatusShutdown},
		{"deadline", context.DeadlineExceeded, wire.StatusDeadline},
		{"not found", db.ErrNotFound, wire.StatusNotFound},
		{"corrupt page", &storage.ErrCorrupt{Page: 7, Kind: storage.CorruptChecksum}, wire.StatusInternal},
		{"wrapped corrupt", fmt.Errorf("lookup: %w", &storage.ErrCorrupt{Page: 7, Kind: storage.CorruptTorn}), wire.StatusInternal},
		{"no space", storage.ErrNoSpace, wire.StatusInternal},
		{"unknown", errors.New("mystery"), wire.StatusInternal},
	}
	for _, tc := range cases {
		resp := errResponse(tc.err)
		if resp.Status != tc.want {
			t.Errorf("%s: errResponse(%v) = %v, want %v", tc.name, tc.err, resp.Status, tc.want)
		}
		if len(resp.Body) == 0 {
			t.Errorf("%s: error body must carry the message", tc.name)
		}
	}
}

// TestOldFramingInterop is the byte-compatibility check for the server's
// in-place reply frames: a peer that frames the old way — WriteFrame over
// EncodeRequest, prefix and payload arriving as separate writes — is
// understood, and every reply on the wire is byte-identical to
// WriteFrame(EncodeResponse(resp)), for OK bodies and typed refusals alike.
func TestOldFramingInterop(t *testing.T) {
	leakcheck.Check(t)
	srv, database := startServer(t, db.Config{Frames: 32}, Config{}, 16)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))

	rec, err := database.Lookup(3)
	if err != nil {
		t.Fatal(err)
	}
	_, lookupErr := database.Lookup(999)
	for _, tc := range []struct {
		req  wire.Request
		want wire.Response
	}{
		{wire.Request{Op: wire.OpGet, CustID: 3}, wire.Response{Status: wire.StatusOK, Body: rec}},
		{wire.Request{Op: wire.OpUpdate, CustID: 4, Fill: 9, Timeout: time.Second}, wire.Response{Status: wire.StatusOK}},
		{wire.Request{Op: wire.OpGet, CustID: 999}, errResponse(lookupErr)},
		{wire.Request{Op: wire.OpGet, CustID: 3}, wire.Response{Status: wire.StatusOK, Body: rec}},
	} {
		if err := wire.WriteFrame(conn, wire.EncodeRequest(tc.req)); err != nil { // two Writes
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := wire.WriteFrame(&want, wire.EncodeResponse(tc.want)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, want.Len())
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("%v %d: reading reply: %v", tc.req.Op, tc.req.CustID, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%v %d: reply frame differs from WriteFrame(EncodeResponse):\n got %x\nwant %x",
				tc.req.Op, tc.req.CustID, got[:min(len(got), 32)], want.Bytes()[:min(want.Len(), 32)])
		}
	}
}
