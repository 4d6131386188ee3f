package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/storage/sim"
)

// blockingDB returns a db config whose disk reads park on gate while armed
// (counting entries in parked), over a pool small enough that early keys
// are cold after the load: the scaffolding for holding execution slots
// occupied for exactly as long as a test wants.
func blockingDB() (cfg db.Config, arm *atomic.Bool, parked *atomic.Int64, gate chan struct{}) {
	arm, parked = &atomic.Bool{}, &atomic.Int64{}
	gate = make(chan struct{})
	cfg = db.Config{
		Frames: 16,
		K:      1, // strict LRU: the load's early pages are certainly evicted
		Backend: sim.New(sim.ServiceModel{Delay: func(int64) {
			if arm.Load() {
				parked.Add(1)
				<-gate
			}
		}}),
	}
	return cfg, arm, parked, gate
}

// waitFor polls cond until it holds or the test's patience runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// asyncGet issues one GET on its own connection and delivers the outcome.
func asyncGet(t *testing.T, srv *Server, id int64) <-chan error {
	t.Helper()
	cl := dial(t, srv)
	out := make(chan error, 1)
	go func() {
		_, err := cl.Get(context.Background(), id)
		out <- err
	}()
	return out
}

// TestAdmissionBounds is the equivalence test for slot admission against
// the worker pool + queue it replaced: with Workers 2 and QueueDepth 2
// over a backend that blocks, exactly two requests execute, exactly two
// wait, and a fifth is shed with BUSY promptly, doing no database work;
// releasing the backend completes all four. The queue-depth gauge reads
// the waiters while they wait, and every admitted request — immediate or
// delayed — lands one observation in the queue-wait histogram.
func TestAdmissionBounds(t *testing.T) {
	leakcheck.Check(t)
	dbCfg, arm, parked, gate := blockingDB()
	reg := obs.NewRegistry()
	srv, _ := startServer(t, dbCfg, Config{Workers: 2, QueueDepth: 2, Obs: reg}, 256)
	hs := httptest.NewServer(obs.Handler(reg))
	defer hs.Close()

	arm.Store(true)
	// Distinct early keys far apart: cold, and on different leaf pages.
	running := []<-chan error{asyncGet(t, srv, 0), asyncGet(t, srv, 60)}
	waitFor(t, "two requests parked in the backend", func() bool { return parked.Load() == 2 })
	if got := len(srv.slots); got != 2 {
		t.Fatalf("%d slots held with two requests executing, want 2", got)
	}

	waiting := []<-chan error{asyncGet(t, srv, 120), asyncGet(t, srv, 180)}
	waitFor(t, "two requests waiting for a slot", func() bool { return srv.waiters.Load() == 2 })
	if got := parked.Load(); got != 2 {
		t.Fatalf("%d requests reached the backend with 2 slots, want 2", got)
	}
	if got := scrapeMetrics(t, hs)["lruk_server_queue_depth"]; got != 2 {
		t.Errorf("lruk_server_queue_depth = %v while two requests wait, want 2", got)
	}

	// The fifth finds every slot held and the wait bound reached.
	cl := dial(t, srv)
	began := time.Now()
	_, err := cl.Get(context.Background(), 240)
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("fifth request: err = %v, want ErrBusy", err)
	}
	if took := time.Since(began); took > 50*time.Millisecond {
		t.Errorf("BUSY took %v, want < 50ms (shedding does no database work)", took)
	}
	if got := parked.Load(); got != 2 {
		t.Errorf("shed request touched the backend (%d parked)", got)
	}

	arm.Store(false)
	close(gate)
	for i, ch := range append(running, waiting...) {
		if err := <-ch; err != nil {
			t.Errorf("admitted request %d: %v", i, err)
		}
	}
	waitFor(t, "slots and waiters to drain", func() bool { return len(srv.slots) == 0 && srv.waiters.Load() == 0 })

	st := srv.Stats()
	if st.Requests != 5 || st.Shed != 1 || st.Statuses["ok"] != 4 || st.Statuses["busy"] != 1 {
		t.Errorf("stats = %+v, want 5 requests, 1 shed, 4 ok, 1 busy", st)
	}
	vals := scrapeMetrics(t, hs)
	if got, want := vals["lruk_server_queue_wait_seconds_count"], float64(st.Requests-st.Shed); got != want {
		t.Errorf("queue wait count = %v, want %v (one per admitted request)", got, want)
	}
	if got := vals["lruk_server_queue_depth"]; got != 0 {
		t.Errorf("lruk_server_queue_depth = %v after the drain, want 0", got)
	}
	// The two delayed admissions really were timed: the histogram's maximum
	// is a wait, not the ~0 of an immediate admission.
	if got := srv.queueWait.Summary().Max; got <= 0 {
		t.Errorf("queue wait max = %v, want > 0 for the requests that waited", got)
	}
}

// TestCloseDuringAdmissionWait: a drain that begins while a request waits
// for a slot answers it StatusShutdown (it never ran), lets the request
// that holds the slot finish, and leaves no goroutine behind — there is no
// worker pool to reap, so a started server is its accept loop and nothing
// else.
func TestCloseDuringAdmissionWait(t *testing.T) {
	leakcheck.Check(t)
	dbCfg, arm, parked, gate := blockingDB()
	database, err := db.Open(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(256); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	srv := New(database, Config{Addr: "127.0.0.1:0", Workers: 1, QueueDepth: 1})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := leakcheck.Wait(base+1, time.Second); err != nil {
		t.Errorf("a started server must run its accept loop only: %v", err)
	}

	arm.Store(true)
	running := asyncGet(t, srv, 0)
	waitFor(t, "the running request to park in the backend", func() bool { return parked.Load() == 1 })
	waiting := asyncGet(t, srv, 120)
	waitFor(t, "the second request to wait for the slot", func() bool { return srv.waiters.Load() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	if err := <-waiting; !errors.Is(err, client.ErrShutdown) {
		t.Errorf("waiter during drain: err = %v, want ErrShutdown", err)
	}
	if got := parked.Load(); got != 1 {
		t.Errorf("the drained waiter reached the backend (%d parked)", got)
	}
	arm.Store(false)
	close(gate)
	if err := <-running; err != nil {
		t.Errorf("in-flight request during drain: %v", err)
	}
	if err := <-closed; err != nil {
		t.Errorf("close: %v", err)
	}
}
