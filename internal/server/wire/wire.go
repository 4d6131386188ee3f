// Package wire defines the page service's binary protocol: length-prefixed
// frames on a TCP stream, a fixed request header, and single-byte status
// codes on every reply. The format is deliberately small — five operations,
// no negotiation — because the interesting engineering lives behind it
// (admission control, shedding, deadline propagation), not in the codec.
//
// Frame:
//
//	bytes 0-3   payload length, big-endian uint32 (bounded by the reader's
//	            max-frame guard; an oversized prefix is rejected before any
//	            allocation)
//	bytes 4...  payload
//
// Request payload:
//
//	byte  0     op (OpGet ... OpRangeWrite); bit 7 (0x80) flags a trace
//	            context extension between the header and the body
//	bytes 1-8   per-request time budget in milliseconds, big-endian uint64
//	            (0 = none; the server caps it and runs the operation under
//	            a context with that deadline)
//	            — with bit 7 set, 17 further bytes follow the header:
//	            8-byte big-endian trace id (must be non-zero), 8-byte
//	            big-endian parent span id, 1 flags byte (bit 0 = sampled,
//	            the rest must be zero) — see DESIGN.md §17
//	bytes 9...  op-specific body:
//	              GET         8-byte big-endian uint64 customer id
//	              UPDATE      8-byte big-endian uint64 customer id + 1 fill byte
//	              SCAN, STATS, FLUSH, VIEW_GET  empty
//	              VIEW_SET    JSON View (the proposed membership view)
//	              RANGE_READ  8-byte lo + 8-byte hi key (big-endian, [lo,hi))
//	              RANGE_WRITE range-entry block (see AppendRangeEntries)
//
// Response payload:
//
//	byte  0     status (StatusOK ... StatusMoved)
//	bytes 1...  body: on StatusOK the op's result (GET record bytes, SCAN
//	            8-byte big-endian count, STATS JSON StatsReply, VIEW_GET
//	            JSON View, VIEW_SET 8-byte current epoch, RANGE_READ a
//	            range-entry block, RANGE_WRITE 8-byte applied count, UPDATE
//	            and FLUSH empty); on StatusMoved a JSON Moved naming the
//	            key's owner and carrying the replier's membership view; on
//	            any other status a UTF-8 error message.
//
// The VIEW_*/RANGE_* operations and StatusMoved are the cluster tier
// (DESIGN.md §16): views make a node refuse keys it does not own, MOVED
// tells the client who does, and the range ops stream key fills between
// nodes during a membership handoff. Range and view ops are admin-plane:
// they are never ownership-checked, so a rebalance coordinator can copy
// data into a node before the cluster's clients are told it owns it.
//
// Decoding is strict: unknown ops, short bodies, and trailing bytes are
// errors, never panics — FuzzDecodeRequest holds the codec to that. The
// JSON view/moved bodies have their own strict decoders (DecodeView,
// DecodeMoved) with their own fuzz targets.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
)

// Op identifies a request operation.
type Op uint8

// The protocol's operations.
const (
	OpGet Op = iota + 1
	OpScan
	OpUpdate
	OpStats
	OpFlush
	OpViewGet
	OpViewSet
	OpRangeRead
	OpRangeWrite
)

// NumOps is the count of defined operations; op values run 1..NumOps, so
// per-op tables are sized NumOps+1 and indexed by the op directly.
const NumOps = int(OpRangeWrite)

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpScan:
		return "SCAN"
	case OpUpdate:
		return "UPDATE"
	case OpStats:
		return "STATS"
	case OpFlush:
		return "FLUSH"
	case OpViewGet:
		return "VIEW_GET"
	case OpViewSet:
		return "VIEW_SET"
	case OpRangeRead:
		return "RANGE_READ"
	case OpRangeWrite:
		return "RANGE_WRITE"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Status is the single-byte reply code.
type Status uint8

// Reply statuses. The server maps the storage layer's typed errors onto
// these: an open disk circuit breaker (bufferpool.ErrDiskUnavailable)
// becomes StatusUnavailable, an expired request context StatusDeadline, a
// closed database StatusShutdown; StatusBusy is minted by the server
// itself when the admission queue is full, without touching the database.
const (
	StatusOK          Status = 0
	StatusBusy        Status = 1 // shed at admission: queue full
	StatusUnavailable Status = 2 // disk circuit breaker open
	StatusDeadline    Status = 3 // request deadline expired or cancelled
	StatusNotFound    Status = 4 // no such customer
	StatusShutdown    Status = 5 // server draining or database closed
	StatusBadRequest  Status = 6 // malformed frame or unknown op
	StatusInternal    Status = 7 // anything else
	StatusMoved       Status = 8 // key owned by another node; body is a JSON Moved
	numStatuses              = 9
)

// NumStatuses is the count of defined status codes (for per-status
// counters).
const NumStatuses = numStatuses

// String names the status for diagnostics and stats maps.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusUnavailable:
		return "unavailable"
	case StatusDeadline:
		return "deadline"
	case StatusNotFound:
		return "not_found"
	case StatusShutdown:
		return "shutdown"
	case StatusBadRequest:
		return "bad_request"
	case StatusInternal:
		return "internal"
	case StatusMoved:
		return "moved"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// MaxFrameDefault is the default max-frame guard: comfortably larger than
// any record (a record fits one 4 KByte page) or stats JSON, small enough
// that a hostile length prefix cannot balloon allocation.
const MaxFrameDefault = 64 << 10

// Framing and decoding errors.
var (
	// ErrFrameTooLarge reports a length prefix above the reader's guard;
	// the frame body is not read (and never allocated).
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadRequest reports a request payload that does not decode.
	ErrBadRequest = errors.New("wire: malformed request")
	// ErrBadResponse reports a response payload that does not decode.
	ErrBadResponse = errors.New("wire: malformed response")
)

// FrameHeader is the size of a frame's length prefix.
const FrameHeader = 4

const (
	reqHeader = 1 + 8 // op + millis budget

	// opTraceFlag marks a request frame carrying the trace-context
	// extension; the op itself lives in the remaining 7 bits. New flag
	// bits cannot be minted the same way — 0x80 is the op byte's only
	// spare bit — so any further extension must ride inside this one.
	opTraceFlag = 0x80
	// traceExtSize is the extension's length: trace id (8) + parent span
	// id (8) + flags (1).
	traceExtSize = 17
	// traceFlagSampled is the extension's only defined flag bit; the
	// other seven must be zero.
	traceFlagSampled = 0x01
)

// SealFrame patches the length prefix of a frame built in one buffer:
// frame[:FrameHeader] is the placeholder the caller reserved, the rest the
// payload appended after it. The sealed buffer — a big-endian payload
// length, then the payload — goes out in a single Write.
func SealFrame(frame []byte) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-FrameHeader))
}

// FrameLength parses a frame's length prefix and applies the max-frame
// guard — the defence against a hostile or corrupt prefix, run before any
// buffer is sized by it.
func FrameLength(hdr []byte, max uint32) (uint32, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > max {
		return 0, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, max)
	}
	return n, nil
}

// ReadFrameInto reads one frame into buf's storage, growing it only when
// the payload exceeds cap(buf) — and only after the max-frame guard has
// passed, so an oversized prefix never sizes an allocation. It returns the
// payload and the (possibly regrown) buffer to pass to the next call; the
// payload aliases that buffer and is valid until then. On error the
// payload is nil.
func ReadFrameInto(r io.Reader, buf []byte, max uint32) (payload, newBuf []byte, err error) {
	if cap(buf) < FrameHeader {
		buf = make([]byte, FrameHeader)
	}
	// The header lands in the buffer itself (the payload overwrites it): a
	// local array would escape through the io.Reader and cost an allocation
	// per frame.
	hdr := buf[:FrameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, buf, err
	}
	n, err := FrameLength(hdr, max)
	if err != nil {
		return nil, buf, err
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, buf, err
	}
	return payload, buf, nil
}

// Request is one decoded operation.
type Request struct {
	Op Op
	// Timeout is the client's time budget for the operation; zero means
	// none (the server applies its own cap either way).
	Timeout time.Duration
	// CustID is the customer key for OpGet and OpUpdate.
	CustID int64
	// Fill is the filler byte for OpUpdate.
	Fill byte
	// Lo and Hi bound OpRangeRead's key window [Lo, Hi).
	Lo, Hi int64
	// Entries is OpRangeWrite's batch of key fills.
	Entries []RangeEntry
	// View is OpViewSet's proposed membership view as raw JSON. The binary
	// codec carries it opaquely (so frames round-trip byte-identically);
	// DecodeView applies the strict JSON layer.
	View []byte
	// Trace is the request's trace context. A zero TraceID encodes no
	// extension at all: the frame is byte-identical to the pre-tracing
	// format.
	Trace obs.TraceContext
}

// AppendRequest appends the encoded request payload to dst.
func AppendRequest(dst []byte, req Request) []byte {
	millis := uint64(0)
	if req.Timeout > 0 {
		millis = uint64(req.Timeout / time.Millisecond)
		if millis == 0 {
			millis = 1 // a positive sub-millisecond budget must not decay to "none"
		}
	}
	op := byte(req.Op)
	if req.Trace.TraceID != 0 {
		op |= opTraceFlag
	}
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint64(dst, millis)
	if req.Trace.TraceID != 0 {
		dst = binary.BigEndian.AppendUint64(dst, req.Trace.TraceID)
		dst = binary.BigEndian.AppendUint64(dst, req.Trace.SpanID)
		flags := byte(0)
		if req.Trace.Sampled {
			flags |= traceFlagSampled
		}
		dst = append(dst, flags)
	}
	switch req.Op {
	case OpGet:
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.CustID))
	case OpUpdate:
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.CustID))
		dst = append(dst, req.Fill)
	case OpViewSet:
		dst = append(dst, req.View...)
	case OpRangeRead:
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.Lo))
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.Hi))
	case OpRangeWrite:
		dst = AppendRangeEntries(dst, req.Entries)
	}
	return dst
}

// DecodeRequest decodes a request payload. Unknown ops, short bodies, and
// trailing garbage all fail with ErrBadRequest.
func DecodeRequest(p []byte) (Request, error) {
	if len(p) < reqHeader {
		return Request{}, fmt.Errorf("%w: %d-byte payload, want >= %d", ErrBadRequest, len(p), reqHeader)
	}
	req := Request{Op: Op(p[0] &^ opTraceFlag)}
	millis := binary.BigEndian.Uint64(p[1:9])
	const maxMillis = uint64(1<<63-1) / uint64(time.Millisecond)
	if millis > maxMillis {
		return Request{}, fmt.Errorf("%w: time budget %dms overflows", ErrBadRequest, millis)
	}
	req.Timeout = time.Duration(millis) * time.Millisecond
	body := p[reqHeader:]
	if p[0]&opTraceFlag != 0 {
		if len(body) < traceExtSize {
			return Request{}, fmt.Errorf("%w: trace extension %d bytes, want >= %d", ErrBadRequest, len(body), traceExtSize)
		}
		req.Trace.TraceID = binary.BigEndian.Uint64(body[:8])
		req.Trace.SpanID = binary.BigEndian.Uint64(body[8:16])
		flags := body[16]
		if req.Trace.TraceID == 0 {
			return Request{}, fmt.Errorf("%w: trace extension with zero trace id", ErrBadRequest)
		}
		if flags&^traceFlagSampled != 0 {
			return Request{}, fmt.Errorf("%w: trace extension flags %#02x unknown", ErrBadRequest, flags)
		}
		req.Trace.Sampled = flags&traceFlagSampled != 0
		body = body[traceExtSize:]
	}
	switch req.Op {
	case OpGet:
		if len(body) != 8 {
			return Request{}, fmt.Errorf("%w: GET body %d bytes, want 8", ErrBadRequest, len(body))
		}
		req.CustID = int64(binary.BigEndian.Uint64(body))
	case OpUpdate:
		if len(body) != 9 {
			return Request{}, fmt.Errorf("%w: UPDATE body %d bytes, want 9", ErrBadRequest, len(body))
		}
		req.CustID = int64(binary.BigEndian.Uint64(body[:8]))
		req.Fill = body[8]
	case OpScan, OpStats, OpFlush, OpViewGet:
		if len(body) != 0 {
			return Request{}, fmt.Errorf("%w: %v body %d bytes, want 0", ErrBadRequest, req.Op, len(body))
		}
	case OpViewSet:
		if len(body) == 0 {
			return Request{}, fmt.Errorf("%w: VIEW_SET with empty body", ErrBadRequest)
		}
		req.View = body
	case OpRangeRead:
		if len(body) != 16 {
			return Request{}, fmt.Errorf("%w: RANGE_READ body %d bytes, want 16", ErrBadRequest, len(body))
		}
		req.Lo = int64(binary.BigEndian.Uint64(body[:8]))
		req.Hi = int64(binary.BigEndian.Uint64(body[8:]))
		if req.Hi < req.Lo {
			return Request{}, fmt.Errorf("%w: RANGE_READ window [%d,%d) inverted", ErrBadRequest, req.Lo, req.Hi)
		}
	case OpRangeWrite:
		entries, err := DecodeRangeEntries(body)
		if err != nil {
			return Request{}, err
		}
		req.Entries = entries
	default:
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrBadRequest, p[0])
	}
	return req, nil
}

// Response is one decoded reply.
type Response struct {
	Status Status
	// Body is the op result on StatusOK, a UTF-8 error message otherwise.
	Body []byte
}

// AppendResponse appends the encoded response payload to dst.
func AppendResponse(dst []byte, resp Response) []byte {
	dst = append(dst, byte(resp.Status))
	return append(dst, resp.Body...)
}

// DecodeResponse decodes a response payload.
func DecodeResponse(p []byte) (Response, error) {
	if len(p) < 1 {
		return Response{}, fmt.Errorf("%w: empty payload", ErrBadResponse)
	}
	if Status(p[0]) >= numStatuses {
		return Response{}, fmt.Errorf("%w: unknown status %d", ErrBadResponse, p[0])
	}
	return Response{Status: Status(p[0]), Body: p[1:]}, nil
}

// NodeAddr is one cluster member: a stable identity plus its current
// dialable address. Identity, not address, is what the consistent-hash
// ring is built from, so a node can move hosts without moving keys.
type NodeAddr struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// View is a membership view: the set of nodes forming the cluster, stamped
// with a monotonically increasing epoch. Views are totally ordered by
// epoch; every participant (server or client) adopts a view only when its
// epoch exceeds the one it holds, which is what keeps a rebalance's
// MOVED ping-pong convergent. Epoch 0 is the "no view" / bootstrap value
// and must carry no nodes on the wire.
type View struct {
	Epoch uint64     `json:"epoch"`
	Nodes []NodeAddr `json:"nodes"`
}

// Node returns the member with the given id, reporting whether it exists.
func (v View) Node(id string) (NodeAddr, bool) {
	for _, n := range v.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return NodeAddr{}, false
}

// EncodeView encodes the view as its canonical JSON body.
func EncodeView(v View) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		// Only unmarshalable values can fail here, and View has none.
		panic(err)
	}
	return raw
}

// DecodeView decodes and validates a JSON view body: an epoch-0 view must
// be empty, any real view needs at least one node, and every node needs a
// unique non-empty id and a non-empty address.
func DecodeView(p []byte) (View, error) {
	var v View
	if err := json.Unmarshal(p, &v); err != nil {
		return View{}, fmt.Errorf("%w: view: %v", ErrBadRequest, err)
	}
	if err := v.validate(); err != nil {
		return View{}, err
	}
	return v, nil
}

func (v View) validate() error {
	if v.Epoch == 0 {
		if len(v.Nodes) != 0 {
			return fmt.Errorf("%w: view: epoch 0 with %d nodes", ErrBadRequest, len(v.Nodes))
		}
		return nil
	}
	if len(v.Nodes) == 0 {
		return fmt.Errorf("%w: view: epoch %d with no nodes", ErrBadRequest, v.Epoch)
	}
	seen := make(map[string]struct{}, len(v.Nodes))
	for _, n := range v.Nodes {
		if n.ID == "" || n.Addr == "" {
			return fmt.Errorf("%w: view: node %+v needs id and addr", ErrBadRequest, n)
		}
		if _, dup := seen[n.ID]; dup {
			return fmt.Errorf("%w: view: duplicate node id %q", ErrBadRequest, n.ID)
		}
		seen[n.ID] = struct{}{}
	}
	return nil
}

// Moved is the StatusMoved body: the node that owns the requested key
// under the replier's membership view, plus that whole view so a stale
// client can patch its ring in one round trip instead of discovering the
// topology key by key.
type Moved struct {
	Owner string `json:"owner"`
	View  View   `json:"view"`
}

// EncodeMoved encodes the redirect as its JSON body.
func EncodeMoved(m Moved) []byte {
	raw, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return raw
}

// DecodeMoved decodes and validates a JSON MOVED body: the view must be a
// real (epoch > 0) valid view and the owner must be one of its members.
func DecodeMoved(p []byte) (Moved, error) {
	var m Moved
	if err := json.Unmarshal(p, &m); err != nil {
		return Moved{}, fmt.Errorf("%w: moved: %v", ErrBadResponse, err)
	}
	if m.View.Epoch == 0 {
		return Moved{}, fmt.Errorf("%w: moved: epoch-0 view", ErrBadResponse)
	}
	if err := m.View.validate(); err != nil {
		return Moved{}, fmt.Errorf("%w: moved: %v", ErrBadResponse, err)
	}
	if _, ok := m.View.Node(m.Owner); !ok {
		return Moved{}, fmt.Errorf("%w: moved: owner %q not in view", ErrBadResponse, m.Owner)
	}
	return m, nil
}

// RangeEntry is one key's state in a handoff stream: the customer key and
// its current fill byte. A record is fully determined by (key, fill), so
// this is the whole transferable state of a key.
type RangeEntry struct {
	Key  int64
	Fill byte
}

const rangeEntrySize = 9 // key(8) + fill(1)

// MaxRangeEntries bounds one range block. It keeps the largest
// RANGE_READ reply and RANGE_WRITE request comfortably inside
// MaxFrameDefault, and caps what a hostile count prefix can make the
// decoder allocate.
const MaxRangeEntries = 4096

// AppendRangeEntries appends the canonical range block: a big-endian
// uint32 entry count followed by count (key, fill) records.
func AppendRangeEntries(dst []byte, entries []RangeEntry) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Key))
		dst = append(dst, e.Fill)
	}
	return dst
}

// DecodeRangeEntries decodes a range block. The count prefix must match
// the body length exactly and stay within MaxRangeEntries; the length
// check runs before any allocation.
func DecodeRangeEntries(p []byte) ([]RangeEntry, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: range block %d bytes, want >= 4", ErrBadRequest, len(p))
	}
	count := binary.BigEndian.Uint32(p[:4])
	if count > MaxRangeEntries {
		return nil, fmt.Errorf("%w: range block count %d exceeds %d", ErrBadRequest, count, MaxRangeEntries)
	}
	if want := 4 + int(count)*rangeEntrySize; len(p) != want {
		return nil, fmt.Errorf("%w: range block %d bytes, count %d wants %d", ErrBadRequest, len(p), count, want)
	}
	if count == 0 {
		return nil, nil
	}
	entries := make([]RangeEntry, count)
	for i := range entries {
		off := 4 + i*rangeEntrySize
		entries[i] = RangeEntry{
			Key:  int64(binary.BigEndian.Uint64(p[off : off+8])),
			Fill: p[off+8],
		}
	}
	return entries, nil
}

// ServerStats is the network layer's own counter block, reported next to
// the database's snapshot in a StatsReply.
type ServerStats struct {
	// Conns is the number of connections accepted so far.
	Conns uint64 `json:"conns"`
	// Requests is the number of well-framed requests read.
	Requests uint64 `json:"requests"`
	// Shed is the number of requests refused at admission with StatusBusy
	// (a subset of the "busy" entry in Statuses).
	Shed uint64 `json:"shed"`
	// Statuses counts replies by status name.
	Statuses map[string]uint64 `json:"statuses"`
	// ViewEpoch is the epoch of the membership view this node holds
	// (0 = standalone, no cluster view installed).
	ViewEpoch uint64 `json:"view_epoch,omitempty"`
	// RangeKeysOut / RangeKeysIn count keys streamed out of / into this
	// node by handoff RANGE_READ / RANGE_WRITE operations.
	RangeKeysOut uint64 `json:"range_keys_out,omitempty"`
	RangeKeysIn  uint64 `json:"range_keys_in,omitempty"`
}

// StatsReply is the STATS op's JSON body: the server's counters plus the
// database's combined snapshot, and — when the server runs with an obs
// registry — every histogram's summary, keyed `name` or `name{labels}`
// exactly as /metrics exposes it. Remote tooling (lrukload's percentile
// report) reads the same distributions an operator would scrape.
type StatsReply struct {
	Server ServerStats      `json:"server"`
	DB     db.StatsSnapshot `json:"db"`
	// Obs is nil when the server has no registry configured.
	Obs map[string]obs.HistSummary `json:"obs,omitempty"`
}
