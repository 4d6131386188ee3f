// Package client is the Go client for the network page service
// (internal/server): one TCP connection, one outstanding request at a
// time, synchronous call per operation. Server-side refusals come back as
// typed errors (ErrBusy, ErrUnavailable, ...) so callers — the load
// generator above all — can tell load shedding from breaker blackouts from
// real failures with errors.Is.
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server/wire"
)

// Typed mirrors of the wire statuses. A non-OK reply is returned as an
// *Error whose Is method matches the corresponding sentinel; StatusDeadline
// additionally matches context.DeadlineExceeded, so the caller's usual
// deadline handling just works.
//
// The sentinels split along the axis a retry policy branches on:
//
//   - ErrBusy / ErrUnavailable: the server refused work but the
//     connection is healthy and the reply was cheap — back off and retry
//     (in a cluster: back off that node, not the ring).
//   - ErrTransport: the connection itself failed and is poisoned — the
//     stream may be desynchronised, so discard the client and redial.
//   - ErrMoved: this node does not own the key; the *Error's MovedView
//     carries who does.
//   - Everything else (not found, bad request, internal): the request is
//     the problem, and retrying anywhere is pointless.
var (
	ErrBusy        = errors.New("client: server busy (load shed)")
	ErrUnavailable = errors.New("client: disk unavailable (server circuit breaker open)")
	ErrNotFound    = errors.New("client: customer not found")
	ErrShutdown    = errors.New("client: server shutting down")
	ErrBadRequest  = errors.New("client: server rejected request as malformed")
	ErrRemote      = errors.New("client: server internal error")
	ErrMoved       = errors.New("client: key owned by another node")
	// ErrTransport matches any dial, write, read, or response-framing
	// failure — the cases where the connection is (or is being) poisoned,
	// as opposed to a typed refusal delivered over a healthy connection.
	ErrTransport = errors.New("client: transport failure")
)

// TransportError is a connection-level failure: dialing, writing the
// request, or reading/decoding the reply frame. It matches ErrTransport
// with errors.Is and unwraps to the underlying cause.
type TransportError struct {
	// Stage names where the exchange broke: "dial", "write", "read",
	// "decode".
	Stage string
	Err   error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("client: %s: %v", e.Stage, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Is matches the ErrTransport sentinel.
func (e *TransportError) Is(target error) bool { return target == ErrTransport }

// Error is a non-OK reply from the server.
type Error struct {
	Status wire.Status
	Msg    string
	// Body is the raw reply body; for StatusMoved it is the JSON redirect
	// MovedView decodes.
	Body []byte
}

// Error renders the status and the server's message.
func (e *Error) Error() string {
	return fmt.Sprintf("client: server replied %s: %s", e.Status, e.Msg)
}

// Is maps the status onto the package sentinels (and StatusDeadline onto
// context.DeadlineExceeded).
func (e *Error) Is(target error) bool {
	switch e.Status {
	case wire.StatusBusy:
		return target == ErrBusy
	case wire.StatusUnavailable:
		return target == ErrUnavailable
	case wire.StatusDeadline:
		return target == context.DeadlineExceeded
	case wire.StatusNotFound:
		return target == ErrNotFound
	case wire.StatusShutdown:
		return target == ErrShutdown
	case wire.StatusBadRequest:
		return target == ErrBadRequest
	case wire.StatusInternal:
		return target == ErrRemote
	case wire.StatusMoved:
		return target == ErrMoved
	}
	return false
}

// MovedView decodes a StatusMoved reply's redirect: the owning node and
// the replier's membership view. ok is false for any other status or a
// malformed body.
func (e *Error) MovedView() (wire.Moved, bool) {
	if e.Status != wire.StatusMoved {
		return wire.Moved{}, false
	}
	m, err := wire.DecodeMoved(e.Body)
	if err != nil {
		return wire.Moved{}, false
	}
	return m, true
}

// writeSlack is how long past the request's own deadline the client keeps
// the connection readable: the server answers an expired budget with a
// prompt StatusDeadline reply, and cutting the read at exactly the context
// deadline would turn that reply into a spurious transport error.
const writeSlack = 2 * time.Second

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// Client is one connection to the page service. Methods are safe for
// concurrent use but serialise on the connection; open one client per
// in-flight request for parallel load.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	// wbuf is the reusable request frame, length prefix included; hdr
	// receives a reply's length prefix and status byte. With both in the
	// struct a GET allocates only the body it returns.
	wbuf []byte
	hdr  [wire.FrameHeader + 1]byte
	// deadlined records that the connection carries a deadline, so a run
	// of deadline-less requests clears it once, not per request.
	deadlined bool
	// dead poisons the client after a transport error: the stream may be
	// desynchronised, so every later call fails fast with the first error.
	dead error
}

// Dial connects to the service at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, &TransportError{Stage: "dial " + addr, Err: err}
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		wbuf: make([]byte, wire.FrameHeader, 64),
	}
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead == nil {
		c.dead = errors.New("client: closed")
	}
	return c.conn.Close()
}

// do performs one request/response exchange. A sampled trace context on
// ctx rides the request's wire extension.
func (c *Client) do(ctx context.Context, req wire.Request) (wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return wire.Response{}, c.dead
	}
	if err := ctx.Err(); err != nil {
		return wire.Response{}, err
	}
	req.Trace = obs.TraceFrom(ctx)
	if d, ok := ctx.Deadline(); ok {
		req.Timeout = time.Until(d)
		if req.Timeout <= 0 {
			return wire.Response{}, context.DeadlineExceeded
		}
		_ = c.conn.SetDeadline(d.Add(writeSlack))
		c.deadlined = true
	} else if c.deadlined {
		_ = c.conn.SetDeadline(time.Time{})
		c.deadlined = false
	}
	// The frame is built in place and leaves in one Write.
	c.wbuf = wire.AppendRequest(c.wbuf[:wire.FrameHeader], req)
	wire.SealFrame(c.wbuf)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return wire.Response{}, c.poison("write", err)
	}
	resp, err := c.readResponse()
	if err != nil {
		return wire.Response{}, err
	}
	if resp.Status != wire.StatusOK {
		return resp, &Error{Status: resp.Status, Msg: string(resp.Body), Body: resp.Body}
	}
	return resp, nil
}

// readResponse reads one reply frame. The body is read straight into a
// fresh slice the caller owns — the exchange's one allocation.
func (c *Client) readResponse() (wire.Response, error) {
	prefix := c.hdr[:wire.FrameHeader]
	if _, err := io.ReadFull(c.br, prefix); err != nil {
		return wire.Response{}, c.poison("read", err)
	}
	n, err := wire.FrameLength(prefix, wire.MaxFrameDefault)
	if err != nil {
		return wire.Response{}, c.poison("read", err)
	}
	// The status byte is decoded on its own so the strict decoder (empty
	// payload, unknown status) runs before the body is sized.
	status := c.hdr[wire.FrameHeader : wire.FrameHeader+min(n, 1)]
	if _, err := io.ReadFull(c.br, status); err != nil {
		return wire.Response{}, c.poison("read", err)
	}
	resp, err := wire.DecodeResponse(status)
	if err != nil {
		return wire.Response{}, c.poison("decode", err)
	}
	if n > 1 {
		resp.Body = make([]byte, n-1)
		if _, err := io.ReadFull(c.br, resp.Body); err != nil {
			return wire.Response{}, c.poison("read", err)
		}
	}
	return resp, nil
}

// poison records a transport failure and fails the client permanently;
// callers should reconnect.
func (c *Client) poison(stage string, err error) error {
	terr := &TransportError{Stage: stage, Err: err}
	c.dead = terr
	_ = c.conn.Close()
	return terr
}

// Get fetches customer custID's record.
func (c *Client) Get(ctx context.Context, custID int64) ([]byte, error) {
	resp, err := c.do(ctx, wire.Request{Op: wire.OpGet, CustID: custID})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Update overwrites customer custID's filler bytes with fill.
func (c *Client) Update(ctx context.Context, custID int64, fill byte) error {
	_, err := c.do(ctx, wire.Request{Op: wire.OpUpdate, CustID: custID, Fill: fill})
	return err
}

// Scan runs a full sequential scan and returns the record count.
func (c *Client) Scan(ctx context.Context) (int, error) {
	resp, err := c.do(ctx, wire.Request{Op: wire.OpScan})
	if err != nil {
		return 0, err
	}
	if len(resp.Body) != 8 {
		return 0, c.failf("scan reply body %d bytes, want 8", len(resp.Body))
	}
	return int(binary.BigEndian.Uint64(resp.Body)), nil
}

// Stats fetches the server and database counter snapshot.
func (c *Client) Stats(ctx context.Context) (wire.StatsReply, error) {
	resp, err := c.do(ctx, wire.Request{Op: wire.OpStats})
	if err != nil {
		return wire.StatsReply{}, err
	}
	var reply wire.StatsReply
	if err := json.Unmarshal(resp.Body, &reply); err != nil {
		return wire.StatsReply{}, c.failf("stats reply: %v", err)
	}
	return reply, nil
}

// Flush asks the server to write every dirty page back to disk.
func (c *Client) Flush(ctx context.Context) error {
	_, err := c.do(ctx, wire.Request{Op: wire.OpFlush})
	return err
}

// ViewGet fetches the server's current membership view (epoch 0 when the
// node is standalone).
func (c *Client) ViewGet(ctx context.Context) (wire.View, error) {
	resp, err := c.do(ctx, wire.Request{Op: wire.OpViewGet})
	if err != nil {
		return wire.View{}, err
	}
	v, err := wire.DecodeView(resp.Body)
	if err != nil {
		return wire.View{}, c.failf("view reply: %v", err)
	}
	return v, nil
}

// ViewSet proposes a membership view; the server adopts it only if its
// epoch exceeds the currently held one. The returned epoch is whatever
// the server holds afterwards — equal to v.Epoch on adoption, higher if
// the server already knew a newer view.
func (c *Client) ViewSet(ctx context.Context, v wire.View) (uint64, error) {
	resp, err := c.do(ctx, wire.Request{Op: wire.OpViewSet, View: wire.EncodeView(v)})
	if err != nil {
		return 0, err
	}
	if len(resp.Body) != 8 {
		return 0, c.failf("view set reply body %d bytes, want 8", len(resp.Body))
	}
	return binary.BigEndian.Uint64(resp.Body), nil
}

// RangeRead streams the server's key state for the window [lo, hi):
// every existing key with its current fill byte. The window must stay
// within wire.MaxRangeEntries keys. Admin-plane: never ownership-checked.
func (c *Client) RangeRead(ctx context.Context, lo, hi int64) ([]wire.RangeEntry, error) {
	resp, err := c.do(ctx, wire.Request{Op: wire.OpRangeRead, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	entries, err := wire.DecodeRangeEntries(resp.Body)
	if err != nil {
		return nil, c.failf("range read reply: %v", err)
	}
	return entries, nil
}

// RangeWrite applies a batch of key fills on the server, returning how
// many were applied. Admin-plane: never ownership-checked, which is what
// lets a rebalance copy keys into a node before clients are told it owns
// them.
func (c *Client) RangeWrite(ctx context.Context, entries []wire.RangeEntry) (uint64, error) {
	resp, err := c.do(ctx, wire.Request{Op: wire.OpRangeWrite, Entries: entries})
	if err != nil {
		return 0, err
	}
	if len(resp.Body) != 8 {
		return 0, c.failf("range write reply body %d bytes, want 8", len(resp.Body))
	}
	return binary.BigEndian.Uint64(resp.Body), nil
}

// failf reports a malformed OK reply (a server bug, not a transport
// failure) without poisoning the connection.
func (c *Client) failf(format string, args ...any) error {
	return fmt.Errorf("client: "+format, args...)
}
