package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzDecodeRequest: arbitrary bytes must never panic the decoder; any
// payload that decodes must re-encode byte-identically (the header and
// bodies have no redundant encodings).
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpGet, CustID: 12345, Timeout: time.Second}))
	f.Add(AppendRequest(nil, Request{Op: OpUpdate, CustID: -9, Fill: 0x7F}))
	f.Add(AppendRequest(nil, Request{Op: OpScan}))
	f.Add(AppendRequest(nil, Request{Op: OpStats}))
	f.Add(AppendRequest(nil, Request{Op: OpFlush, Timeout: 30 * time.Second}))
	f.Add(AppendRequest(nil, Request{Op: OpViewGet}))
	f.Add(AppendRequest(nil, Request{Op: OpViewSet,
		View: EncodeView(View{Epoch: 2, Nodes: []NodeAddr{{ID: "a", Addr: "h:1"}}})}))
	f.Add(AppendRequest(nil, Request{Op: OpRangeRead, Lo: 0, Hi: 4096, Timeout: time.Second}))
	f.Add(AppendRequest(nil, Request{Op: OpRangeWrite,
		Entries: []RangeEntry{{Key: 1, Fill: 0xAA}, {Key: -7, Fill: 0}}}))
	f.Add(AppendRequest(nil, Request{Op: OpGet, CustID: 12345,
		Trace: obs.TraceContext{TraceID: 0xdeadbeef, SpanID: 0xcafe, Sampled: true}}))
	f.Add(AppendRequest(nil, Request{Op: OpRangeWrite, Entries: []RangeEntry{{Key: 1, Fill: 0xAA}},
		Trace: obs.TraceContext{TraceID: 1}}))
	f.Add(AppendRequest(nil, Request{Op: OpScan, Trace: obs.TraceContext{TraceID: ^uint64(0), Sampled: true}}))
	f.Add([]byte{})
	f.Add([]byte{byte(OpGet)})
	f.Add([]byte{byte(OpGet) | 0x80, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 18))
	f.Add(bytes.Repeat([]byte{0xFF}, 34))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		again := AppendRequest(nil, req)
		if !bytes.Equal(again, data) {
			t.Fatalf("decode(%x) = %+v, but re-encode = %x", data, req, again)
		}
	})
}

// FuzzDecodeView: arbitrary bytes must never panic the view decoder, and
// any body that decodes must survive a canonical re-encode/decode cycle
// unchanged (JSON is not byte-canonical, so the invariant is semantic, not
// byte-identity as for the binary bodies).
func FuzzDecodeView(f *testing.F) {
	f.Add(EncodeView(View{}))
	f.Add(EncodeView(View{Epoch: 1, Nodes: []NodeAddr{{ID: "a", Addr: "h:1"}}}))
	f.Add(EncodeView(View{Epoch: 9, Nodes: []NodeAddr{{ID: "a", Addr: "h:1"}, {ID: "b", Addr: "h:2"}}}))
	f.Add([]byte(`{"epoch":0,"nodes":[{"id":"a","addr":"h:1"}]}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeView(data)
		if err != nil {
			return
		}
		again, err := DecodeView(EncodeView(v))
		if err != nil {
			t.Fatalf("canonical re-encode of %+v failed to decode: %v", v, err)
		}
		if !reflect.DeepEqual(again, v) {
			t.Fatalf("view not a fixed point: %+v vs %+v", v, again)
		}
	})
}

// FuzzDecodeMoved: same contract as FuzzDecodeView for the MOVED redirect
// body.
func FuzzDecodeMoved(f *testing.F) {
	f.Add(EncodeMoved(Moved{Owner: "a", View: View{Epoch: 1, Nodes: []NodeAddr{{ID: "a", Addr: "h:1"}}}}))
	f.Add([]byte(`{"owner":"ghost","view":{"epoch":1,"nodes":[{"id":"a","addr":"h:1"}]}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMoved(data)
		if err != nil {
			return
		}
		if _, ok := m.View.Node(m.Owner); !ok {
			t.Fatalf("decoder accepted owner %q outside the view", m.Owner)
		}
		again, err := DecodeMoved(EncodeMoved(m))
		if err != nil {
			t.Fatalf("canonical re-encode of %+v failed to decode: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("moved not a fixed point: %+v vs %+v", m, again)
		}
	})
}

// FuzzDecodeRangeEntries: arbitrary bytes must never panic the range-block
// decoder or make it allocate past MaxRangeEntries; a decoded block must
// re-encode byte-identically.
func FuzzDecodeRangeEntries(f *testing.F) {
	f.Add(AppendRangeEntries(nil, nil))
	f.Add(AppendRangeEntries(nil, []RangeEntry{{Key: 1, Fill: 0xAA}, {Key: -7, Fill: 0}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeRangeEntries(data)
		if err != nil {
			return
		}
		if len(entries) > MaxRangeEntries {
			t.Fatalf("decoder returned %d entries past the %d cap", len(entries), MaxRangeEntries)
		}
		if again := AppendRangeEntries(nil, entries); !bytes.Equal(again, data) {
			t.Fatalf("decode(%x) re-encoded as %x", data, again)
		}
	})
}

// FuzzReadFrame: an arbitrary byte stream must never panic the reader or
// allocate past the max-frame guard, and whatever reads back must carry
// the advertised length.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameOf([]byte("hello")), uint32(64))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint32(16))
	f.Add([]byte{0, 0, 0, 0}, uint32(0))
	f.Add([]byte{0, 0, 0, 2, 0xAA}, uint32(1024))
	f.Fuzz(func(t *testing.T, data []byte, max uint32) {
		if max > 1<<20 {
			max %= 1 << 20 // keep worst-case allocation bounded in the harness
		}
		payload, _, err := ReadFrameInto(bytes.NewReader(data), nil, max)
		if err != nil {
			return
		}
		if uint32(len(payload)) > max {
			t.Fatalf("reader returned %d bytes past the %d-byte guard", len(payload), max)
		}
		if len(data) < 4 {
			t.Fatal("successful read from a short stream")
		}
		if want := binary.BigEndian.Uint32(data[:4]); uint32(len(payload)) != want {
			t.Fatalf("payload %d bytes, frame advertised %d", len(payload), want)
		}
		// A read frame re-frames to the same bytes it consumed.
		out := append(make([]byte, FrameHeader), payload...)
		SealFrame(out)
		if !bytes.Equal(out, data[:4+len(payload)]) {
			t.Fatal("frame did not round-trip")
		}
	})
}

// countingReader counts the bytes handed out, so a test can prove a
// rejected frame's body was never read.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadFrameInto holds a read into a reused buffer to a read into a
// fresh one (nil buf) and to its own contract: the same bytes yield the
// same payload or the same kind of failure; an oversized prefix is refused
// before the buffer grows or the body is read; a short stream errors; and
// a buffer reused from a previous (longer, differently filled) frame never
// leaks that frame's bytes into the payload.
func FuzzReadFrameInto(f *testing.F) {
	seed := frameOf([]byte("hello"))
	f.Add(seed, uint32(64), uint8(0))
	f.Add(seed, uint32(64), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint32(16), uint8(8))
	f.Add([]byte{0, 0, 0, 0}, uint32(0), uint8(200))
	f.Add([]byte{0, 0, 0, 2, 0xAA}, uint32(1024), uint8(1))
	f.Add([]byte{0, 0}, uint32(1024), uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, limit uint32, prior uint8) {
		if limit > 1<<20 {
			limit %= 1 << 20 // keep worst-case allocation bounded in the harness
		}
		want, _, wantErr := ReadFrameInto(bytes.NewReader(data), nil, limit)

		// A buffer left over from an earlier frame, filled with a marker.
		buf := bytes.Repeat([]byte{0xEE}, int(prior))
		src := &countingReader{r: bytes.NewReader(data)}
		payload, newBuf, err := ReadFrameInto(src, buf, limit)

		if (err == nil) != (wantErr == nil) {
			t.Fatalf("reused-buffer err = %v, fresh-buffer err = %v", err, wantErr)
		}
		if err != nil {
			if payload != nil {
				t.Fatalf("failed read returned a %d-byte payload", len(payload))
			}
			if errors.Is(err, ErrFrameTooLarge) {
				if !errors.Is(wantErr, ErrFrameTooLarge) {
					t.Fatalf("fresh-buffer read failed differently: %v", wantErr)
				}
				if src.n != FrameHeader {
					t.Fatalf("oversized frame: %d bytes consumed, want only the %d-byte prefix", src.n, FrameHeader)
				}
				if cap(newBuf) > max(cap(buf), FrameHeader) {
					t.Fatalf("oversized prefix grew the buffer from %d to %d", cap(buf), cap(newBuf))
				}
			}
			return
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("reused-buffer read = %x, fresh-buffer read = %x", payload, want)
		}
		if uint32(len(payload)) > limit {
			t.Fatalf("reader returned %d bytes past the %d-byte guard", len(payload), limit)
		}
		if !bytes.Equal(payload, data[FrameHeader:FrameHeader+len(payload)]) {
			t.Fatal("payload carries bytes that are not the frame's (stale buffer contents?)")
		}
		if len(payload) > 0 && &payload[0] != &newBuf[:1][0] {
			t.Fatal("payload does not alias the returned buffer")
		}
		if len(payload) <= cap(buf) && cap(buf) >= FrameHeader && cap(newBuf) != cap(buf) {
			t.Fatalf("buffer reallocated (%d -> %d) for a %d-byte payload that fit", cap(buf), cap(newBuf), len(payload))
		}
	})
}
