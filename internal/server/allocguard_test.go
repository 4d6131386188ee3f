package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/server/wire"
)

// measureAllocs warms get, then returns the process-wide heap allocations
// and bytes per call over n calls. Process-wide on purpose: the server's
// side of the exchange runs on another goroutine, and the guard is about
// the whole socket-to-db path.
func measureAllocs(t *testing.T, n int, get func(i int)) (allocs, bytes float64) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		get(i)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		get(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestRequestPathAllocGuard holds the resident-hit GET path to its
// allocation budget, so the next regression names itself: a request
// crosses socket → admission → db → socket with no heap allocation on the
// server at all (page handles are values, the request context is the
// connection's, reset per request, and the record is copied straight into
// the reply frame) and one on the client (the body it returns). Measured:
// 1.00 / 0.00 per op. The ceilings allow a tenth of an allocation for the
// process-wide count's background noise, not a whole one. Skipped under
// -race, which instruments allocation.
func TestRequestPathAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	leakcheck.Check(t)
	const (
		customers = 600 // two index levels, as in the benchmark; all resident
		ops       = 5000
	)
	srv, _ := startServer(t, db.Config{Frames: 512}, Config{}, customers)

	t.Run("client+server", func(t *testing.T) {
		cl := dial(t, srv)
		ctx := context.Background()
		allocs, bytes := measureAllocs(t, ops, func(i int) {
			rec, err := cl.Get(ctx, int64(i%customers))
			if err != nil || int64(binary.LittleEndian.Uint64(rec)) != int64(i%customers) {
				t.Fatalf("get %d: %v", i%customers, err)
			}
		})
		t.Logf("client+server: %.2f allocs/op, %.0f B/op", allocs, bytes)
		if allocs > 1.1 {
			t.Errorf("GET over loopback costs %.2f allocs/op, budget 1 (the returned record)", allocs)
		}
		if bytes > 2200 {
			t.Errorf("GET over loopback allocates %.0f B/op, budget 2200 (one 2000-byte record)", bytes)
		}
	})

	// The server's share alone: a hand-rolled client that reuses its frame
	// buffers allocates nothing, so whatever is counted is the server's.
	t.Run("server", func(t *testing.T) {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		br := bufio.NewReader(c)
		frame := make([]byte, wire.FrameHeader, 64)
		var reply []byte
		allocs, bytes := measureAllocs(t, ops, func(i int) {
			frame = wire.AppendRequest(frame[:wire.FrameHeader], wire.Request{Op: wire.OpGet, CustID: int64(i % customers)})
			wire.SealFrame(frame)
			if _, err := c.Write(frame); err != nil {
				t.Fatal(err)
			}
			var payload []byte
			payload, reply, err = wire.ReadFrameInto(br, reply, wire.MaxFrameDefault)
			if err != nil || wire.Status(payload[0]) != wire.StatusOK {
				t.Fatalf("get %d: %v / %v", i%customers, err, payload)
			}
		})
		t.Logf("server alone: %.2f allocs/op, %.0f B/op", allocs, bytes)
		if allocs > 0.1 {
			t.Errorf("server side of a GET costs %.2f allocs/op, budget 0", allocs)
		}
	})
}
