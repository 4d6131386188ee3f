package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// fakeNode is a scripted page server on a loopback port. It answers the
// i-th GET or SCAN it reads (counting from 0, across connections) with
// answer(i, req): a status, or cut to send part of a reply frame and drop
// the connection. VIEW_GET, which doKey's refresh sends, gets the empty
// epoch-0 view, which no client adopts.
type fakeNode struct {
	ln     net.Listener
	answer func(i int, req wire.Request) (status wire.Status, cut bool)

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
	seen   []fakeRequest
}

// fakeRequest is one GET or SCAN the fake read: the connection it came on,
// numbered in accept order, and whether it carried a trace context.
type fakeRequest struct {
	conn   int
	traced bool
}

func startFake(t *testing.T, answer func(i int, req wire.Request) (wire.Status, bool)) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeNode{ln: ln, answer: answer}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			if f.closed {
				f.mu.Unlock()
				_ = c.Close()
				return
			}
			id := len(f.conns)
			f.conns = append(f.conns, c)
			f.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.serve(c, id)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		f.mu.Lock()
		f.closed = true
		for _, c := range f.conns {
			_ = c.Close()
		}
		f.mu.Unlock()
		wg.Wait()
	})
	return f
}

func (f *fakeNode) serve(c net.Conn, id int) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		payload, _, err := wire.ReadFrameInto(br, nil, wire.MaxFrameDefault)
		if err != nil {
			return
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		resp := wire.Response{Status: wire.StatusOK, Body: wire.EncodeView(wire.View{})}
		if req.Op != wire.OpViewGet {
			f.mu.Lock()
			i := len(f.seen)
			f.seen = append(f.seen, fakeRequest{conn: id, traced: req.Trace.TraceID != 0})
			f.mu.Unlock()
			status, cut := f.answer(i, req)
			if cut {
				// The prefix promises a status byte and 8 body bytes; 1 arrives.
				_, _ = c.Write([]byte{0, 0, 0, 9, byte(wire.StatusOK), 'r'})
				return
			}
			resp.Status = status
			switch {
			case status != wire.StatusOK:
				resp.Body = []byte("scripted " + status.String())
			case req.Op == wire.OpScan:
				resp.Body = binary.BigEndian.AppendUint64(nil, 42)
			default:
				resp.Body = []byte("record")
			}
		}
		frame := wire.AppendResponse(make([]byte, wire.FrameHeader), resp)
		wire.SealFrame(frame)
		if _, err := c.Write(frame); err != nil {
			return
		}
	}
}

func (f *fakeNode) requests() []fakeRequest {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakeRequest(nil), f.seen...)
}

func fakeClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	cc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// TestSettleOutcomes runs each attempt outcome through both retry loops,
// Get (doKey) and Scan, against a fake node, and checks what settle made
// of it: the Counters class, how many requests reached the node, and the
// error returned. The view names the fake twice (n0 and n1), so a retry
// has somewhere to go whether its loop waits out the penalised node
// (doKey) or rotates past it (Scan).
func TestSettleOutcomes(t *testing.T) {
	type step struct {
		status wire.Status
		// cut sends part of the reply and drops the connection; cancel
		// cancels the caller's context before the node answers.
		cut, cancel bool
	}
	ok := step{status: wire.StatusOK}
	cases := []struct {
		name  string
		steps []step // the i-th request's answer; the last one repeats
		// refused leaves nothing listening at the nodes' address.
		refused  bool
		want     NodeCounters // summed over n0 and n1
		requests int
		err      error // errors.Is target; nil means success
		// redial: the request after the first came on a new connection.
		redial bool
	}{
		{name: "busy", steps: []step{{status: wire.StatusBusy}, ok},
			want: NodeCounters{Busy: 1, OK: 1}, requests: 2},
		{name: "unavailable", steps: []step{{status: wire.StatusUnavailable}, ok},
			want: NodeCounters{Unavailable: 1, OK: 1}, requests: 2},
		{name: "not found", steps: []step{{status: wire.StatusNotFound}},
			want: NodeCounters{Err: 1}, requests: 1, err: client.ErrNotFound},
		{name: "reply cut mid-frame", steps: []step{{cut: true}, ok},
			want: NodeCounters{Transport: 1, OK: 1}, requests: 2, redial: true},
		{name: "refused dial", refused: true,
			want: NodeCounters{Transport: 2}, err: client.ErrTransport},
		{name: "cancelled while the node holds off", steps: []step{{status: wire.StatusDeadline, cancel: true}},
			requests: 1, err: context.Canceled},
	}
	ops := []struct {
		name string
		run  func(context.Context, *Client) error
	}{
		{"Get", func(ctx context.Context, cc *Client) error {
			_, err := cc.Get(ctx, 1)
			return err
		}},
		{"Scan", func(ctx context.Context, cc *Client) error {
			_, err := cc.Scan(ctx)
			return err
		}},
	}
	for _, tc := range cases {
		for _, op := range ops {
			t.Run(tc.name+"/"+op.name, func(t *testing.T) {
				leakcheck.Check(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				f := startFake(t, func(i int, _ wire.Request) (wire.Status, bool) {
					s := tc.steps[min(i, len(tc.steps)-1)]
					if s.cancel {
						cancel()
					}
					return s.status, s.cut
				})
				addr := f.ln.Addr().String()
				if tc.refused {
					_ = f.ln.Close()
				}
				cc := fakeClient(t, Config{
					View: wire.View{Epoch: 1, Nodes: []wire.NodeAddr{
						{ID: "n0", Addr: addr}, {ID: "n1", Addr: addr},
					}},
					// A penalty long enough that Scan's next attempt always
					// finds the node still held off.
					maxAttempts: 2, busyBackoff: 50 * time.Millisecond, maxBackoff: 50 * time.Millisecond,
				})

				err := op.run(ctx, cc)
				if !errors.Is(err, tc.err) {
					t.Errorf("err = %v, want %v", err, tc.err)
				}
				var got NodeCounters
				for _, c := range cc.Counters() {
					got.OK += c.OK
					got.Busy += c.Busy
					got.Unavailable += c.Unavailable
					got.Moved += c.Moved
					got.Transport += c.Transport
					got.Err += c.Err
				}
				if got != tc.want {
					t.Errorf("counters = %+v, want %+v", got, tc.want)
				}
				seen := f.requests()
				if len(seen) != tc.requests {
					t.Fatalf("node saw %d requests, want %d", len(seen), tc.requests)
				}
				if tc.redial && seen[1].conn == seen[0].conn {
					t.Errorf("retry after a transport failure reused connection %d", seen[0].conn)
				}
			})
		}
	}
}

// TestClusterClientKeepsTraceAfterBadRequest: every server decodes the
// trace extension, so BAD_REQUEST to a traced frame is the request's
// fault, not a sign of a peer that predates tracing. The traced Get fails
// with ErrBadRequest after one request and counts as a terminal error,
// and the next traced Get still reaches the node with its trace context.
func TestClusterClientKeepsTraceAfterBadRequest(t *testing.T) {
	leakcheck.Check(t)
	f := startFake(t, func(_ int, req wire.Request) (wire.Status, bool) {
		if req.Trace.TraceID != 0 {
			return wire.StatusBadRequest, false
		}
		return wire.StatusOK, false
	})
	cc := fakeClient(t, Config{View: wire.View{
		Epoch: 1,
		Nodes: []wire.NodeAddr{{ID: "n0", Addr: f.ln.Addr().String()}},
	}})
	ctx := obs.ContextWithTrace(context.Background(),
		obs.TraceContext{TraceID: 0xfeed, SpanID: 0xbeef, Sampled: true})

	if _, err := cc.Get(ctx, 1); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("traced GET err = %v, want ErrBadRequest", err)
	}
	if n := len(f.requests()); n != 1 {
		t.Fatalf("node saw %d requests, want 1", n)
	}
	if c := cc.Counters()["n0"]; c.Err != 1 || c.OK != 0 {
		t.Fatalf("counters = %+v, want one terminal error", c)
	}
	if _, err := cc.Get(ctx, 2); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("second traced GET err = %v, want ErrBadRequest", err)
	}
	if seen := f.requests(); len(seen) != 2 || !seen[1].traced {
		t.Fatalf("node saw %+v, want a second, traced request", seen)
	}
}
