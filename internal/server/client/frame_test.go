package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server/wire"
)

// scriptConn is a net.Conn that records every Write and SetDeadline and
// answers each written frame with the next scripted reply.
type scriptConn struct {
	net.Conn  // nil: any method not overridden below must not be called
	writes    [][]byte
	deadlines []time.Time
	replies   [][]byte
	in        bytes.Buffer
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	if len(c.replies) > 0 {
		c.in.Write(c.replies[0])
		c.replies = c.replies[1:]
	}
	return len(p), nil
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *scriptConn) SetDeadline(t time.Time) error {
	c.deadlines = append(c.deadlines, t)
	return nil
}

func (c *scriptConn) Close() error { return nil }

// replyFrame frames resp by hand: a big-endian payload length, then the
// payload.
func replyFrame(resp wire.Response) []byte {
	payload := wire.AppendResponse(nil, resp)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestRequestIsOneIdenticalWrite: for every op, traced and untraced, the
// client puts exactly one Write on the connection and its bytes equal
// AppendRequest(nil, req) behind a hand-written length prefix — the reused
// in-place frame is the same wire format an old server has always read.
func TestRequestIsOneIdenticalWrite(t *testing.T) {
	view := wire.EncodeView(wire.View{Epoch: 2, Nodes: []wire.NodeAddr{{ID: "a", Addr: "h:1"}}})
	reqs := []wire.Request{
		{Op: wire.OpGet, CustID: 12345},
		{Op: wire.OpUpdate, CustID: -9, Fill: 0x7F},
		{Op: wire.OpScan},
		{Op: wire.OpStats},
		{Op: wire.OpFlush},
		{Op: wire.OpViewGet},
		{Op: wire.OpViewSet, View: view},
		{Op: wire.OpRangeRead, Lo: 10, Hi: 4000},
		{Op: wire.OpRangeWrite, Entries: []wire.RangeEntry{{Key: 1, Fill: 0xAA}, {Key: 2, Fill: 0xBB}}},
		{Op: wire.OpGet, CustID: 1}, // a short frame after long ones: no stale tail
	}
	tc := obs.TraceContext{TraceID: 0xFEEDFACE, SpanID: 77, Sampled: true}
	for _, traced := range []bool{false, true} {
		conn := &scriptConn{}
		cl := newClient(conn)
		ctx := context.Background()
		if traced {
			ctx = obs.ContextWithTrace(ctx, tc)
		}
		for i, req := range reqs {
			conn.replies = [][]byte{replyFrame(wire.Response{Status: wire.StatusOK})}
			if _, err := cl.do(ctx, req); err != nil {
				t.Fatalf("traced=%v req %d (%v): %v", traced, i, req.Op, err)
			}
			want := req
			if traced {
				want.Trace = tc
			}
			payload := wire.AppendRequest(nil, want)
			frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
			if len(conn.writes) != i+1 {
				t.Fatalf("traced=%v req %d (%v): %d writes so far, want %d (one per request)",
					traced, i, req.Op, len(conn.writes), i+1)
			}
			if got := conn.writes[i]; !bytes.Equal(got, frame) {
				t.Errorf("traced=%v req %d (%v):\\n sent %x\\n want %x", traced, i, req.Op, got, frame)
			}
		}
		if len(conn.deadlines) != 0 {
			t.Errorf("traced=%v: %d SetDeadline calls for deadline-less requests, want 0", traced, len(conn.deadlines))
		}
	}
}

// TestDeadlineOnlySetOnChange: a deadline is armed per deadlined request
// and cleared once when a deadline-less request follows, not re-cleared on
// every deadline-less request after that. The budget still rides the frame.
func TestDeadlineOnlySetOnChange(t *testing.T) {
	conn := &scriptConn{}
	cl := newClient(conn)
	ok := replyFrame(wire.Response{Status: wire.StatusOK, Body: []byte("rec")})
	get := func(ctx context.Context) {
		t.Helper()
		conn.replies = [][]byte{ok}
		if _, err := cl.Get(ctx, 7); err != nil {
			t.Fatal(err)
		}
	}
	get(context.Background())
	get(context.Background())
	if len(conn.deadlines) != 0 {
		t.Fatalf("deadline-less requests touched the deadline %d times", len(conn.deadlines))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	get(ctx)
	get(ctx)
	if len(conn.deadlines) != 2 || conn.deadlines[1].IsZero() {
		t.Fatalf("deadlined requests: deadlines = %v, want two non-zero", conn.deadlines)
	}
	get(context.Background())
	get(context.Background())
	get(context.Background())
	if len(conn.deadlines) != 3 || !conn.deadlines[2].IsZero() {
		t.Fatalf("after returning to deadline-less: deadlines = %v, want exactly one clear", conn.deadlines)
	}
	// The deadlined request carried its budget on the wire.
	req, err := wire.DecodeRequest(conn.writes[2][wire.FrameHeader:])
	if err != nil {
		t.Fatal(err)
	}
	if req.Timeout <= 9*time.Second || req.Timeout > 10*time.Second {
		t.Errorf("wire budget = %v, want just under 10s", req.Timeout)
	}
}

// TestReplyBodyIsCallerOwned: each OK body is a fresh slice — scribbling on
// one reply must not show up in the next — and malformed replies (empty
// payload, unknown status, oversized frame) poison the client as transport
// failures rather than panicking or hanging.
func TestReplyBodyIsCallerOwned(t *testing.T) {
	conn := &scriptConn{}
	cl := newClient(conn)
	conn.replies = [][]byte{replyFrame(wire.Response{Status: wire.StatusOK, Body: []byte("first")})}
	a, err := cl.Get(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		a[i] = 'X'
	}
	conn.replies = [][]byte{replyFrame(wire.Response{Status: wire.StatusOK, Body: []byte("other")})}
	b, err := cl.Get(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "other" || string(a) != "XXXXX" {
		t.Errorf("bodies alias: a = %q, b = %q", a, b)
	}

	for name, raw := range map[string][]byte{
		"empty payload":  {0, 0, 0, 0},
		"unknown status": {0, 0, 0, 3, 200, 'h', 'i'},
		"oversized":      {0xff, 0xff, 0xff, 0xff},
		"short body":     {0, 0, 0, 9, 0, 'x'},
	} {
		conn := &scriptConn{replies: [][]byte{raw}}
		cl := newClient(conn)
		_, err := cl.Get(context.Background(), 1)
		if !errors.Is(err, ErrTransport) {
			t.Errorf("%s: err = %v, want ErrTransport", name, err)
		}
		if _, err2 := cl.Get(context.Background(), 1); !errors.Is(err2, ErrTransport) {
			t.Errorf("%s: client not poisoned: %v", name, err2)
		}
	}
}
