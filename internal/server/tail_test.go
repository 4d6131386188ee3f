package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/storage/sim"
)

// TestTailRescue pins what the server records for requests the client did
// not sample. The client makes the sampling decision and the wire flag
// carries it; the server only rescues after the fact: a request at least
// SlowThreshold slow leaves a request span and a queue-wait child under
// the frame's trace id (a new one when the frame carries none), and a shed
// request always leaves one zero-duration request span.
func TestTailRescue(t *testing.T) {
	leakcheck.Check(t)
	const customers = 16

	// newSpans runs do and returns the spans it left in rec.
	newSpans := func(rec *obs.SpanRecorder, do func()) []obs.SpanRecord {
		before := len(rec.Snapshot())
		do()
		return rec.Snapshot()[before:]
	}
	untracedGet := func(t *testing.T, srv *Server) func() {
		return func() {
			if _, err := dial(t, srv).Get(context.Background(), 3); err != nil {
				t.Fatalf("get: %v", err)
			}
		}
	}
	// unsampledGet sends a GET whose frame carries a trace extension
	// without the sampled flag: the encoding no client in this module
	// produces, since an unsampled context is never attached.
	unsampledGet := func(t *testing.T, srv *Server) func() {
		return func() {
			c, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			frame := wire.AppendRequest(make([]byte, wire.FrameHeader), wire.Request{
				Op: wire.OpGet, CustID: 3, Trace: obs.TraceContext{TraceID: 7, SpanID: 9},
			})
			wire.SealFrame(frame)
			if _, err := c.Write(frame); err != nil {
				t.Fatal(err)
			}
			payload, _, err := wire.ReadFrameInto(c, nil, wire.MaxFrameDefault)
			if err != nil || wire.Status(payload[0]) != wire.StatusOK {
				t.Fatalf("unsampled get: %v / %v", err, payload)
			}
		}
	}
	// checkRescued asserts spans are exactly a request span parented on
	// parent and its queue-wait child, both under one nonzero trace id
	// (want, when nonzero).
	checkRescued := func(t *testing.T, name string, spans []obs.SpanRecord, want, parent obs.Hex64) {
		t.Helper()
		if len(spans) != 2 {
			t.Fatalf("%s: %d spans, want a request and a queue-wait span: %+v", name, len(spans), spans)
		}
		req, wait := spans[0], spans[1]
		if req.Kind != obs.SpanRequest || wait.Kind != obs.SpanQueueWait {
			t.Fatalf("%s: span kinds %v, %v; want request, queue_wait", name, req.Kind, wait.Kind)
		}
		if req.Trace == 0 || wait.Trace != req.Trace || (want != 0 && req.Trace != want) {
			t.Errorf("%s: traces %s, %s; want one trace id (%s)", name, req.Trace, wait.Trace, want)
		}
		if req.Parent != parent || wait.Parent != req.Span {
			t.Errorf("%s: request parent %s (want %s), queue-wait parent %s (want %s)",
				name, req.Parent, parent, wait.Parent, req.Span)
		}
	}

	t.Run("no threshold", func(t *testing.T) {
		rec := obs.NewSpanRecorder("n0", 64)
		srv, _ := startServer(t, db.Config{Frames: 32}, Config{Spans: rec}, customers)
		if spans := newSpans(rec, untracedGet(t, srv)); len(spans) != 0 {
			t.Errorf("untraced get left %d spans, want none: %+v", len(spans), spans)
		}
		if spans := newSpans(rec, unsampledGet(t, srv)); len(spans) != 0 {
			t.Errorf("unsampled get left %d spans, want none: %+v", len(spans), spans)
		}
	})

	t.Run("slow threshold", func(t *testing.T) {
		rec := obs.NewSpanRecorder("n0", 64)
		srv, _ := startServer(t, db.Config{Frames: 32}, Config{Spans: rec, SlowThreshold: time.Nanosecond}, customers)
		checkRescued(t, "untraced get", newSpans(rec, untracedGet(t, srv)), 0, 0)
		checkRescued(t, "unsampled get", newSpans(rec, unsampledGet(t, srv)), 7, 9)
	})

	t.Run("shed", func(t *testing.T) {
		// One worker, one waiter and a slowed disk: a burst of cold GETs
		// overflows the admission queue (the overload test's set-up).
		var slow atomic.Bool
		backend := sim.New(sim.ServiceModel{Delay: func(int64) {
			if slow.Load() {
				time.Sleep(20 * time.Millisecond)
			}
		}})
		rec := obs.NewSpanRecorder("n0", 256)
		srv, _ := startServer(t, db.Config{Frames: 16, Backend: backend},
			Config{Workers: 1, QueueDepth: 1, Spans: rec}, 512)
		const burst = 12
		clients := make([]*client.Client, burst)
		for i := range clients {
			clients[i] = dial(t, srv)
		}
		slow.Store(true)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *client.Client) {
				defer wg.Done()
				start.Wait()
				if _, err := cl.Get(context.Background(), int64(i*32)); err != nil && !errors.Is(err, client.ErrBusy) {
					t.Errorf("get %d: %v", i, err)
				}
			}(i, cl)
		}
		start.Done()
		wg.Wait()
		slow.Store(false)

		shed := srv.Stats().Shed
		if shed == 0 {
			t.Fatal("the burst shed nothing")
		}
		spans := rec.Snapshot()
		if uint64(len(spans)) != shed {
			t.Fatalf("%d spans for %d sheds, want one each: %+v", len(spans), shed, spans)
		}
		for _, s := range spans {
			if s.Kind != obs.SpanRequest || s.Dur != 0 || s.Trace == 0 || s.Annot != int64(wire.OpGet) {
				t.Errorf("shed span %+v, want a zero-duration get request span under a new trace", s)
			}
		}
	})
}
