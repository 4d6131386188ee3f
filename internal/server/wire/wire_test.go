package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, CustID: 42},
		{Op: OpGet, CustID: -1, Timeout: 250 * time.Millisecond},
		{Op: OpUpdate, CustID: 7, Fill: 0xAB, Timeout: time.Second},
		{Op: OpScan},
		{Op: OpStats, Timeout: 30 * time.Second},
		{Op: OpFlush},
		{Op: OpViewGet},
		{Op: OpViewSet, View: EncodeView(View{Epoch: 3, Nodes: []NodeAddr{{ID: "a", Addr: "h:1"}}})},
		{Op: OpRangeRead, Lo: -5, Hi: 100, Timeout: time.Second},
		{Op: OpRangeWrite, Entries: []RangeEntry{{Key: 9, Fill: 0xEE}, {Key: -2, Fill: 0}}},
		{Op: OpRangeWrite},
	}
	for _, want := range cases {
		got, err := DecodeRequest(AppendRequest(nil, want))
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %v: got %+v, want %+v", want.Op, got, want)
		}
	}
}

func TestRequestTraceRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, CustID: 42, Trace: obs.TraceContext{TraceID: 0xdeadbeef, SpanID: 0xcafe, Sampled: true}},
		{Op: OpGet, CustID: 42, Trace: obs.TraceContext{TraceID: 1}}, // unsampled but traced
		{Op: OpUpdate, CustID: 7, Fill: 0xAB, Timeout: time.Second,
			Trace: obs.TraceContext{TraceID: ^uint64(0), SpanID: ^uint64(0), Sampled: true}},
		{Op: OpScan, Trace: obs.TraceContext{TraceID: 5, Sampled: true}},
		{Op: OpRangeWrite, Entries: []RangeEntry{{Key: 9, Fill: 0xEE}},
			Trace: obs.TraceContext{TraceID: 3, SpanID: 4, Sampled: true}},
	}
	for _, want := range cases {
		p := AppendRequest(nil, want)
		if p[0]&0x80 == 0 {
			t.Fatalf("%v: traced frame lacks the 0x80 op flag", want.Op)
		}
		got, err := DecodeRequest(p)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced round trip %v: got %+v, want %+v", want.Op, got, want)
		}
	}
}

// A request without a trace id must encode byte-identically to the
// pre-tracing format, so old peers keep decoding untraced traffic.
func TestUntracedFrameBackwardCompatible(t *testing.T) {
	req := Request{Op: OpGet, CustID: 42, Timeout: time.Second}
	got := AppendRequest(nil, req)
	want := append([]byte{byte(OpGet), 0, 0, 0, 0, 0, 0, 0x03, 0xe8}, // 1000 ms
		0, 0, 0, 0, 0, 0, 0, 42) // cust-id
	if !bytes.Equal(got, want) {
		t.Fatalf("untraced frame changed layout:\n got %x\nwant %x", got, want)
	}
	if got[0]&0x80 != 0 {
		t.Fatal("untraced frame must not set the trace flag")
	}
}

// The extension's exact layout is part of the protocol: 8-byte trace id,
// 8-byte parent span id, 1 flags byte, all between the header and body.
func TestTracedFrameLayout(t *testing.T) {
	req := Request{Op: OpGet, CustID: 42,
		Trace: obs.TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00, Sampled: true}}
	p := AppendRequest(nil, req)
	if p[0] != byte(OpGet)|0x80 {
		t.Fatalf("op byte = %#02x, want OpGet|0x80", p[0])
	}
	if id := binary.BigEndian.Uint64(p[9:17]); id != 0x1122334455667788 {
		t.Fatalf("trace id bytes = %#x", id)
	}
	if id := binary.BigEndian.Uint64(p[17:25]); id != 0x99aabbccddeeff00 {
		t.Fatalf("parent span id bytes = %#x", id)
	}
	if p[25] != 0x01 {
		t.Fatalf("flags byte = %#02x, want 0x01 (sampled)", p[25])
	}
	// The body follows the extension unchanged.
	if id := binary.BigEndian.Uint64(p[26:34]); int64(id) != 42 {
		t.Fatalf("cust-id after extension = %d, want 42", id)
	}
}

// The recorder an adopted trace carries is node-local: a request built
// from an adopted context encodes byte for byte like one built from the
// three wire fields, and decodes to those fields alone, recording nothing
// until the receiving node adopts it.
func TestWireDropsRecorder(t *testing.T) {
	rec := obs.NewSpanRecorder("n", 8)
	plain := obs.TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00, Sampled: true}
	adopted := rec.Adopt(plain)
	if adopted == plain {
		t.Fatal("Adopt attached no recorder")
	}
	got := AppendRequest(nil, Request{Op: OpUpdate, CustID: 42, Fill: 7, Trace: adopted})
	want := AppendRequest(nil, Request{Op: OpUpdate, CustID: 42, Fill: 7, Trace: plain})
	if !bytes.Equal(got, want) {
		t.Fatalf("adopted trace encodes as %x, want %x", got, want)
	}
	req, err := DecodeRequest(got)
	if err != nil {
		t.Fatal(err)
	}
	if req.Trace != plain {
		t.Errorf("decoded trace %+v, want the three wire fields %+v and no recorder", req.Trace, plain)
	}
	req.Trace.Start(obs.SpanRequest).Finish(0)
	if n := len(rec.Snapshot()); n != 0 {
		t.Errorf("a decoded trace recorded %d spans into the sender's recorder", n)
	}
}

func TestDecodeRequestRejectsBadTrace(t *testing.T) {
	good := AppendRequest(nil, Request{Op: OpGet, CustID: 1,
		Trace: obs.TraceContext{TraceID: 7, SpanID: 8, Sampled: true}})
	cases := map[string][]byte{
		"short extension": good[:reqHeader+5],
		"zero trace id": func() []byte {
			p := append([]byte(nil), good...)
			for i := 9; i < 17; i++ {
				p[i] = 0
			}
			return p
		}(),
		"unknown flag bits": func() []byte {
			p := append([]byte(nil), good...)
			p[25] = 0x03
			return p
		}(),
		"extension without body": good[:reqHeader+17],
	}
	for name, p := range cases {
		if _, err := DecodeRequest(p); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

func TestRequestSubMillisecondBudgetSurvives(t *testing.T) {
	// A positive budget below 1ms must not encode as "no deadline".
	got, err := DecodeRequest(AppendRequest(nil, Request{Op: OpScan, Timeout: 100 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Timeout != time.Millisecond {
		t.Errorf("sub-millisecond budget decoded as %v, want 1ms", got.Timeout)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"short header":       {byte(OpGet), 0, 0},
		"unknown op":         append([]byte{99}, make([]byte, 8)...),
		"zero op":            append([]byte{0}, make([]byte, 8)...),
		"GET short body":     append([]byte{byte(OpGet)}, make([]byte, 8+4)...),
		"GET trailing":       append([]byte{byte(OpGet)}, make([]byte, 8+9)...),
		"UPDATE short":       append([]byte{byte(OpUpdate)}, make([]byte, 8+8)...),
		"SCAN trailing":      append([]byte{byte(OpScan)}, make([]byte, 8+1)...),
		"FLUSH trailing":     append([]byte{byte(OpFlush)}, make([]byte, 8+2)...),
		"overflowing budget": {byte(OpScan), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"VIEW_GET trailing":  append([]byte{byte(OpViewGet)}, make([]byte, 8+1)...),
		"VIEW_SET empty":     append([]byte{byte(OpViewSet)}, make([]byte, 8)...),
		"RANGE_READ short":   append([]byte{byte(OpRangeRead)}, make([]byte, 8+15)...),
		"RANGE_READ inverted": append([]byte{byte(OpRangeRead)},
			0, 0, 0, 0, 0, 0, 0, 0, // budget
			0, 0, 0, 0, 0, 0, 0, 9, // lo = 9
			0, 0, 0, 0, 0, 0, 0, 1), // hi = 1
		"RANGE_WRITE short":     append([]byte{byte(OpRangeWrite)}, make([]byte, 8+3)...),
		"RANGE_WRITE count lie": append([]byte{byte(OpRangeWrite)}, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9),
	}
	for name, p := range cases {
		if _, err := DecodeRequest(p); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, want := range []Response{
		{Status: StatusOK, Body: []byte("payload")},
		{Status: StatusBusy, Body: []byte("queue full")},
		{Status: StatusInternal, Body: nil},
	} {
		got, err := DecodeResponse(AppendResponse(nil, want))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
	if _, err := DecodeResponse(nil); !errors.Is(err, ErrBadResponse) {
		t.Errorf("empty response: err = %v, want ErrBadResponse", err)
	}
	if _, err := DecodeResponse([]byte{200}); !errors.Is(err, ErrBadResponse) {
		t.Errorf("unknown status: err = %v, want ErrBadResponse", err)
	}
}

// frameOf frames payload by hand — a big-endian length, then the payload
// — the format SealFrame produces and ReadFrameInto reads.
func frameOf(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{0xEE}, 4096)}
	for _, p := range payloads {
		buf.Write(frameOf(p))
	}
	for _, want := range payloads {
		got, _, err := ReadFrameInto(&buf, nil, MaxFrameDefault)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame round trip: got %d bytes, want %d", len(got), len(want))
		}
	}
	if _, _, err := ReadFrameInto(&buf, nil, MaxFrameDefault); err != io.EOF {
		t.Errorf("read past end: err = %v, want io.EOF", err)
	}
}

func TestReadFrameGuards(t *testing.T) {
	// Oversized length prefix: rejected before the body is read.
	buf := bytes.NewBuffer(frameOf(make([]byte, 100)))
	if _, _, err := ReadFrameInto(buf, nil, 64); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}

	// A hostile prefix claiming 4 GiB must fail without reading a body.
	r := strings.NewReader("\xff\xff\xff\xff")
	if _, _, err := ReadFrameInto(r, nil, MaxFrameDefault); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("hostile prefix: err = %v, want ErrFrameTooLarge", err)
	}

	// Truncated payload: io.ErrUnexpectedEOF, not a hang or panic.
	if _, _, err := ReadFrameInto(strings.NewReader("\x00\x00\x00\x10abc"), nil, MaxFrameDefault); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated payload: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Truncated header likewise.
	if _, _, err := ReadFrameInto(strings.NewReader("\x00\x00"), nil, MaxFrameDefault); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameIntoReusesBuffer walks one buffer through a stream of
// frames of shrinking and growing sizes: each payload is exactly its
// frame's bytes (nothing of the longer frame before it shows through), the
// buffer is reallocated only when a payload outgrows it, and a frame built
// with SealFrame reads back like one framed by hand.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte{0xAA}, 40),
		[]byte("tiny"),
		{},
		bytes.Repeat([]byte{0xBB}, 40),
		bytes.Repeat([]byte{0xCC}, 4096),
		[]byte("after the big one"),
	}
	var stream bytes.Buffer
	for i, p := range payloads {
		if i%2 == 0 {
			stream.Write(frameOf(p))
			continue
		}
		frame := append(make([]byte, FrameHeader), p...)
		SealFrame(frame)
		stream.Write(frame)
	}
	var buf []byte
	grown := 0
	for i, want := range payloads {
		before := cap(buf)
		var got []byte
		var err error
		got, buf, err = ReadFrameInto(&stream, buf, MaxFrameDefault)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %x, want %x", i, got, want)
		}
		if cap(buf) != before {
			grown++
		}
	}
	if grown != 2 { // nil -> 40, 40 -> 4096
		t.Errorf("buffer regrown %d times over the stream, want 2", grown)
	}
	if _, _, err := ReadFrameInto(&stream, buf, MaxFrameDefault); err != io.EOF {
		t.Errorf("read past end: err = %v, want io.EOF", err)
	}
	// The guard runs before growth: a frame larger than the buffer and the
	// limit leaves the buffer as it was.
	small := make([]byte, 8)
	_, after, err := ReadFrameInto(strings.NewReader("\x00\x00\x10\x00"), small, 64)
	if !errors.Is(err, ErrFrameTooLarge) || cap(after) != cap(small) {
		t.Errorf("oversized frame: err = %v, buffer cap %d -> %d", err, cap(small), cap(after))
	}
}

func TestStatusNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Status(0); s < NumStatuses; s++ {
		name := s.String()
		if strings.HasPrefix(name, "status(") {
			t.Errorf("status %d has no name", s)
		}
		if seen[name] {
			t.Errorf("duplicate status name %q", name)
		}
		seen[name] = true
	}
}
