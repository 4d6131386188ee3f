package file

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
)

func TestRecordRoundTrip(t *testing.T) {
	img := make([]byte, storage.PageSize)
	for i := range img {
		img[i] = byte(i * 7)
	}
	frames := [][]byte{
		appendRecord(nil, recKindPage, 42, img),
		appendRecord(nil, recKindAlloc, 7, nil),
	}
	var log bytes.Buffer
	for _, f := range frames {
		log.Write(f)
	}
	r := bytes.NewReader(log.Bytes())

	p1, err := readRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(p1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.kind != recKindPage || rec.page != 42 || !bytes.Equal(rec.img, img) {
		t.Errorf("page record decoded as kind=%d page=%d", rec.kind, rec.page)
	}

	p2, _ := readRecord(r)
	if rec, err := decodeRecord(p2); err != nil || rec.kind != recKindAlloc || rec.page != 7 {
		t.Errorf("alloc record: %+v, %v", rec, err)
	}
	if _, err := readRecord(r); err != io.EOF {
		t.Errorf("clean end of log reported %v, want io.EOF", err)
	}
}

// TestTruncatedTail verifies that every proper prefix of a frame reads as a
// torn record, never as a bogus success — the property recovery's
// stop-at-tail discipline rests on.
func TestTruncatedTail(t *testing.T) {
	frame := appendRecord(nil, recKindPage, 3, make([]byte, storage.PageSize))
	for cut := 1; cut < len(frame); cut += 97 { // sample cuts across the frame
		_, err := readRecord(bytes.NewReader(frame[:cut]))
		if err == io.EOF || err == nil {
			t.Fatalf("frame cut at %d/%d bytes read as %v, want torn record", cut, len(frame), err)
		}
		if !errors.Is(err, errTornRecord) {
			t.Fatalf("frame cut at %d: %v, want errTornRecord", cut, err)
		}
	}
	// Zero bytes is a clean EOF, not a torn record.
	if _, err := readRecord(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty log: %v, want io.EOF", err)
	}
}

// TestCorruptChecksum flips each region of a frame and expects the read to
// fail: a bit flipped anywhere in the payload or header must not decode.
func TestCorruptChecksum(t *testing.T) {
	base := appendRecord(nil, recKindAlloc, 12345, nil)
	for i := 0; i < len(base); i++ {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x40
		payload, err := readRecord(bytes.NewReader(mut))
		if err != nil {
			continue // rejected at the frame layer: good
		}
		// A flip in the length field can still yield a CRC-consistent
		// frame only if the payload bytes happen to re-validate — with a
		// 32-bit CRC over a changed region that must not happen here.
		if _, derr := decodeRecord(payload); derr == nil {
			t.Fatalf("byte %d flipped but record decoded cleanly", i)
		}
	}
}

// TestDecodeRejectsMalformed: every payload decodeRecord refuses is
// errBadRecord, never errTornRecord — it is called only on frames that
// passed their checksum.
func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"short":            {recKindPage, 1, 2},
		"unknown kind":     append([]byte{99}, make([]byte, 8)...),
		"dealloc kind":     append([]byte{3}, make([]byte, 8)...),
		"page image short": append([]byte{recKindPage}, make([]byte, 8+10)...),
		"alloc too long":   append([]byte{recKindAlloc}, make([]byte, 9)...),
		"negative page":    {recKindAlloc, 0x80, 0, 0, 0, 0, 0, 0, 1},
	}
	for name, payload := range cases {
		if _, err := decodeRecord(payload); !errors.Is(err, errBadRecord) || errors.Is(err, errTornRecord) {
			t.Errorf("%s payload: %v, want errBadRecord", name, err)
		}
	}
}

func TestOversizedLengthIsTorn(t *testing.T) {
	var hdr [recHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], maxPayload+1)
	if _, err := readRecord(bytes.NewReader(hdr[:])); !errors.Is(err, errTornRecord) {
		t.Errorf("oversized length: %v, want errTornRecord", err)
	}
	binary.BigEndian.PutUint32(hdr[0:4], 0)
	if _, err := readRecord(bytes.NewReader(hdr[:])); !errors.Is(err, errTornRecord) {
		t.Errorf("zero length: %v, want errTornRecord", err)
	}
}

// FuzzWALRecord mirrors the wire codec's fuzz tests: any byte stream either
// fails to read, or yields a payload that round-trips through the codec
// byte for byte.
func FuzzWALRecord(f *testing.F) {
	img := make([]byte, storage.PageSize)
	img[0], img[4095] = 0xAB, 0xCD
	f.Add(appendRecord(nil, recKindPage, 0, img))
	f.Add(appendRecord(nil, recKindAlloc, 1, nil))
	f.Add(appendRecord(nil, 3, 1<<40, nil)) // a dealloc frame: reads, does not decode
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0xFF}, recHeader))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readRecord(bytes.NewReader(data))
		if err != nil {
			return
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		// Re-encode from the decoded fields and compare against the frame
		// actually consumed (header + payload).
		var again []byte
		switch rec.kind {
		case recKindPage:
			again = appendRecord(nil, recKindPage, rec.page, rec.img)
		default:
			again = appendRecord(nil, rec.kind, rec.page, nil)
		}
		if !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("decode/re-encode mismatch for kind %d page %d", rec.kind, rec.page)
		}
	})
}

// FuzzReplayFrom drives recovery's record loop over arbitrary logs: it must
// error only on a checksum-valid frame that does not decode (errBadRecord),
// treat any other garbage as a torn tail, never apply past the first bad
// frame, and applying the same log to two fresh stores must produce
// identical page files and outcomes (replay determinism).
func FuzzReplayFrom(f *testing.F) {
	img := make([]byte, storage.PageSize)
	img[17] = 0x5A
	var good bytes.Buffer
	good.Write(appendRecord(nil, recKindAlloc, 0, nil))
	good.Write(appendRecord(nil, recKindPage, 0, img))
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-3])
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(appendRecord(appendRecord(bytes.Clone(good.Bytes()), 3, 0, nil), recKindPage, 0, img))
	f.Fuzz(func(t *testing.T, data []byte) {
		open := func(dir string) *Store {
			s, err := Open(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return s
		}
		s1, s2 := open(t.TempDir()), open(t.TempDir())
		n1, torn1, err1 := s1.replayFrom(bytes.NewReader(data))
		n2, torn2, err2 := s2.replayFrom(bytes.NewReader(data))
		if (err1 != nil && !errors.Is(err1, errBadRecord)) || (err1 == nil) != (err2 == nil) {
			t.Fatalf("replay errored on in-memory log: %v / %v", err1, err2)
		}
		if n1 != n2 || torn1 != torn2 {
			t.Fatalf("replay divergence: (%d,%v) vs (%d,%v)", n1, torn1, n2, torn2)
		}
		if s1.next != s2.next {
			t.Fatalf("allocation divergence: next %d vs %d", s1.next, s2.next)
		}
		buf1 := make([]byte, storage.PageSize)
		buf2 := make([]byte, storage.PageSize)
		for p := policy.PageID(0); p < s1.next; p++ {
			if !s1.isAllocated(p) {
				continue
			}
			if _, err := s1.pages.ReadAt(buf1, int64(p)*storage.PageSize); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.pages.ReadAt(buf2, int64(p)*storage.PageSize); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf1, buf2) {
				t.Fatalf("page %d diverged between identical replays", p)
			}
		}
		s1.Close()
		s2.Close()
	})
}
