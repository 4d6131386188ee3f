package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/server/wire"
)

// Every wire status must map onto exactly one sentinel, because the
// cluster retry policy branches on that mapping: BUSY/UNAVAILABLE back
// off the node, MOVED patches the ring, transport failures poison the
// connection, and the rest are terminal.
func TestErrorSentinelMapping(t *testing.T) {
	sentinels := []error{
		ErrBusy, ErrUnavailable, ErrNotFound, ErrShutdown,
		ErrBadRequest, ErrRemote, ErrMoved, context.DeadlineExceeded,
	}
	cases := []struct {
		status wire.Status
		want   error
	}{
		{wire.StatusBusy, ErrBusy},
		{wire.StatusUnavailable, ErrUnavailable},
		{wire.StatusNotFound, ErrNotFound},
		{wire.StatusShutdown, ErrShutdown},
		{wire.StatusBadRequest, ErrBadRequest},
		{wire.StatusInternal, ErrRemote},
		{wire.StatusMoved, ErrMoved},
		{wire.StatusDeadline, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		err := error(&Error{Status: tc.status, Msg: "x"})
		for _, s := range sentinels {
			if got := errors.Is(err, s); got != (s == tc.want) {
				t.Errorf("status %v: errors.Is(err, %v) = %v", tc.status, s, got)
			}
		}
		// A server refusal is never a transport failure.
		if errors.Is(err, ErrTransport) {
			t.Errorf("status %v matched ErrTransport", tc.status)
		}
	}
}

func TestMovedViewDecoding(t *testing.T) {
	v := wire.View{Epoch: 3, Nodes: []wire.NodeAddr{{ID: "a", Addr: "h:1"}, {ID: "b", Addr: "h:2"}}}
	body := wire.EncodeMoved(wire.Moved{Owner: "b", View: v})
	e := &Error{Status: wire.StatusMoved, Msg: string(body), Body: body}
	m, ok := e.MovedView()
	if !ok {
		t.Fatal("MovedView rejected a well-formed redirect")
	}
	if m.Owner != "b" || m.View.Epoch != 3 || len(m.View.Nodes) != 2 {
		t.Errorf("decoded %+v", m)
	}
	if _, ok := (&Error{Status: wire.StatusBusy, Body: body}).MovedView(); ok {
		t.Error("MovedView decoded a non-MOVED status")
	}
	if _, ok := (&Error{Status: wire.StatusMoved, Body: []byte("{")}).MovedView(); ok {
		t.Error("MovedView decoded a malformed body")
	}
}

// A dial failure is a transport error carrying the dial stage.
func TestDialFailureIsTransport(t *testing.T) {
	// Reserve a port, then close the listener so nothing answers.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	_, err = Dial(addr)
	if err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if !errors.Is(err, ErrTransport) {
		t.Errorf("dial failure = %v; want ErrTransport match", err)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Stage == "" {
		t.Errorf("dial failure lacks a staged TransportError: %v", err)
	}
}

// A connection that dies mid-exchange poisons the client: the failing
// call and every later call match ErrTransport, never a server sentinel.
func TestBrokenConnPoisonsClient(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Close() // accept, then hang up before any reply
	}()
	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	<-done
	_, err = cl.Get(context.Background(), 1)
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("get on hung-up conn = %v; want ErrTransport", err)
	}
	if errors.Is(err, ErrBusy) || errors.Is(err, ErrNotFound) {
		t.Errorf("transport failure also matched a server sentinel: %v", err)
	}
	// Poisoned: the next call fails fast with the same transport error.
	if _, err2 := cl.Get(context.Background(), 2); !errors.Is(err2, ErrTransport) {
		t.Errorf("poisoned client follow-up = %v; want ErrTransport", err2)
	}
}

// A typed refusal delivered over a healthy connection must NOT poison
// it: after a BUSY reply, the same connection completes the next call.
func TestTypedRefusalKeepsConnHealthy(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		replies := []wire.Response{
			{Status: wire.StatusBusy, Body: []byte("load shed")},
			{Status: wire.StatusOK, Body: []byte("record!")},
		}
		for _, resp := range replies {
			if _, _, err := wire.ReadFrameInto(br, nil, wire.MaxFrameDefault); err != nil {
				return
			}
			if _, err := bw.Write(replyFrame(resp)); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}()
	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	_, err = cl.Get(ctx, 1)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("first get = %v; want ErrBusy", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Fatal("BUSY refusal matched ErrTransport")
	}
	body, err := cl.Get(ctx, 1)
	if err != nil {
		t.Fatalf("get after BUSY on same conn: %v", err)
	}
	if string(body) != "record!" {
		t.Errorf("body = %q", body)
	}
}
