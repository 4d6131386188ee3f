package file

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
)

var ctx = context.Background()

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

func pageImage(fill byte) []byte {
	img := make([]byte, storage.PageSize)
	for i := range img {
		img[i] = fill
	}
	return img
}

func TestAllocateReadWriteRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storage.MustAllocate(s)
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, p, buf); err != nil {
		t.Fatalf("read fresh page: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, storage.PageSize)) {
		t.Error("fresh page not zeroed")
	}
	img := pageImage(0x3C)
	if err := s.Write(ctx, p, img); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(ctx, p, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img) {
		t.Error("read back differs from write")
	}
}

func TestUnallocatedAndBadBuffer(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, 99, buf); !errors.Is(err, storage.ErrPageNotAllocated) {
		t.Errorf("read unallocated: %v", err)
	}
	if err := s.Write(ctx, 99, buf); !errors.Is(err, storage.ErrPageNotAllocated) {
		t.Errorf("write unallocated: %v", err)
	}
	p := storage.MustAllocate(s)
	if err := s.Read(ctx, p, make([]byte, 10)); err == nil {
		t.Error("short read buffer accepted")
	}
	if err := s.Write(ctx, p, make([]byte, storage.PageSize+1)); err == nil {
		t.Error("long write buffer accepted")
	}
}

func TestDurableAcrossCleanClose(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	a, b := storage.MustAllocate(s), storage.MustAllocate(s)
	if err := s.Write(ctx, a, pageImage('a')); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, b, pageImage('b')); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	ri := s2.Recovery()
	if !ri.Reopened {
		t.Error("reopen not reported")
	}
	if ri.Replayed != 0 {
		t.Errorf("clean close left %d records to replay", ri.Replayed)
	}
	buf := make([]byte, storage.PageSize)
	if err := s2.Read(ctx, a, buf); err != nil || buf[0] != 'a' {
		t.Errorf("page a after reopen: %v, first byte %q", err, buf[0])
	}
	if err := s2.Read(ctx, b, buf); err != nil || buf[0] != 'b' {
		t.Errorf("page b after reopen: %v, first byte %q", err, buf[0])
	}
	if s2.NumPages() != 2 {
		t.Errorf("NumPages = %d after reopen, want 2", s2.NumPages())
	}
}

// TestCrashRecovery abandons a store without Close — the in-process
// equivalent of kill -9 after the last acknowledged write — and verifies
// every acknowledged operation is replayed on reopen.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	a, b := storage.MustAllocate(s), storage.MustAllocate(s)
	if err := s.Write(ctx, a, pageImage(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, b, pageImage(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, a, pageImage(3)); err != nil {
		t.Fatal(err) // overwrite: replay must apply images in log order
	}
	// No Close, no Flush: all state lives in the WAL only.

	s2 := mustOpen(t, dir)
	defer s2.Close()
	ri := s2.Recovery()
	if ri.Replayed != 5 { // 2 allocs + 3 page images
		t.Errorf("Replayed = %d, want 5", ri.Replayed)
	}
	if ri.TailDropped {
		t.Error("clean log reported a torn tail")
	}
	buf := make([]byte, storage.PageSize)
	if err := s2.Read(ctx, a, buf); err != nil || buf[0] != 3 {
		t.Errorf("page a = %d after recovery (%v), want 3", buf[0], err)
	}
	if err := s2.Read(ctx, b, buf); err != nil || buf[0] != 2 {
		t.Errorf("page b = %d after recovery (%v), want 2", buf[0], err)
	}
	if got := s2.Stats().RecoveredRecords; got != 5 {
		t.Errorf("RecoveredRecords = %d, want 5", got)
	}
}

// TestTornTailDropped truncates the log mid-record — a crash inside the
// final, unacknowledged write — and expects recovery to keep everything
// before the tear and report the drop.
func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	a := storage.MustAllocate(s)
	if err := s.Write(ctx, a, pageImage(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, a, pageImage(8)); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-100); err != nil {
		t.Fatal(err) // tear into the last page record
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	ri := s2.Recovery()
	if !ri.TailDropped {
		t.Error("torn tail not reported")
	}
	if ri.Replayed != 2 { // alloc + first image survive, second image torn
		t.Errorf("Replayed = %d, want 2", ri.Replayed)
	}
	buf := make([]byte, storage.PageSize)
	if err := s2.Read(ctx, a, buf); err != nil || buf[0] != 7 {
		t.Errorf("page a = %d after torn recovery (%v), want first image 7", buf[0], err)
	}
}

// TestCorruptTailDropped flips a byte inside the last record: the checksum
// must reject it and recovery must stop there, keeping earlier records.
func TestCorruptTailDropped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	a := storage.MustAllocate(s)
	if err := s.Write(ctx, a, pageImage(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, a, pageImage(9)); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	if ri := s2.Recovery(); !ri.TailDropped || ri.Replayed != 2 {
		t.Errorf("recovery = %+v, want torn tail after 2 records", ri)
	}
	buf := make([]byte, storage.PageSize)
	if err := s2.Read(ctx, a, buf); err != nil || buf[0] != 7 {
		t.Errorf("page a = %d (%v), want pre-corruption image 7", buf[0], err)
	}
}

// TestCheckpointTruncatesLog verifies Flush's contract: page file synced,
// allocation state published, WAL emptied — so the next recovery replays
// nothing.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	p := storage.MustAllocate(s)
	if err := s.Write(ctx, p, pageImage(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Errorf("wal after checkpoint: size %d (%v), want 0", fi.Size(), err)
	}
	if got := s.Stats().Checkpoints; got == 0 {
		t.Error("checkpoint not counted")
	}
	// Crash now: recovery must come entirely from the checkpointed page
	// file, with nothing to replay.
	s2 := mustOpen(t, dir)
	defer s2.Close()
	if ri := s2.Recovery(); ri.Replayed != 0 || ri.TailDropped {
		t.Errorf("recovery after checkpoint = %+v, want empty replay", ri)
	}
	buf := make([]byte, storage.PageSize)
	if err := s2.Read(ctx, p, buf); err != nil || buf[0] != 5 {
		t.Errorf("page = %d (%v), want checkpointed image 5", buf[0], err)
	}
}

// copyDir clones a store directory, standing in for the block-level
// snapshot a crash leaves behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// readAllPages snapshots every live page image through the public API.
func readAllPages(t *testing.T, s *Store) map[policy.PageID][]byte {
	t.Helper()
	out := make(map[policy.PageID][]byte)
	for p := policy.PageID(0); p < s.next; p++ {
		if !s.isAllocated(p) {
			continue
		}
		buf := make([]byte, storage.PageSize)
		if err := s.Read(ctx, p, buf); err != nil {
			t.Fatal(err)
		}
		out[p] = buf
	}
	return out
}

// TestRecoveryIdempotence replays the same crash image twice (two
// independent copies) and again after the first recovery's checkpoint:
// all three must yield identical page images and allocation state.
func TestRecoveryIdempotence(t *testing.T) {
	origin := t.TempDir()
	s := mustOpen(t, origin)
	a, b := storage.MustAllocate(s), storage.MustAllocate(s)
	if err := s.Write(ctx, a, pageImage(11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err) // some state checkpointed…
	}
	if err := s.Write(ctx, b, pageImage(22)); err != nil {
		t.Fatal(err) // …and some only in the WAL
	}
	if err := s.Write(ctx, a, pageImage(33)); err != nil {
		t.Fatal(err)
	}
	// Crash: replay the same image from two independent copies.
	copy1, copy2 := copyDir(t, origin), copyDir(t, origin)

	r1 := mustOpen(t, copy1)
	pages1 := readAllPages(t, r1)
	rec1 := r1.Recovery()
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := mustOpen(t, copy2)
	pages2 := readAllPages(t, r2)
	rec2 := r2.Recovery()
	r2.Close()

	if rec1.Replayed != rec2.Replayed || rec1.TailDropped != rec2.TailDropped {
		t.Errorf("recovery reports diverge: %+v vs %+v", rec1, rec2)
	}
	if len(pages1) != len(pages2) {
		t.Fatalf("page counts diverge: %d vs %d", len(pages1), len(pages2))
	}
	for p, img := range pages1 {
		if !bytes.Equal(img, pages2[p]) {
			t.Errorf("page %d diverged between identical recoveries", p)
		}
	}

	// Recovering the already-recovered store (checkpointed by its first
	// open) must change nothing: replay after a checkpoint is empty.
	r3 := mustOpen(t, copy1)
	defer r3.Close()
	if ri := r3.Recovery(); ri.Replayed != 0 {
		t.Errorf("second recovery replayed %d records, want 0", ri.Replayed)
	}
	pages3 := readAllPages(t, r3)
	for p, img := range pages1 {
		if !bytes.Equal(img, pages3[p]) {
			t.Errorf("page %d changed across recover→checkpoint→recover", p)
		}
	}
	if got, want := r3.NumPages(), len(pages1); got != want {
		t.Errorf("NumPages = %d after re-recovery, want %d", got, want)
	}
}

// TestUndecodableFrameFailsOpen: a frame that passes its checksum reached
// the log whole, so one that does not decode — a dealloc record (kind 3)
// from a writer that freed pages, or any unknown kind — is no torn tail.
// Dropping it would silently drop the acknowledged write logged after it;
// Open must fail instead and leave the log and meta.json as they were.
func TestUndecodableFrameFailsOpen(t *testing.T) {
	for _, kind := range []byte{3, 99} {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			a := storage.MustAllocate(s)
			if err := s.Write(ctx, a, pageImage(1)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			// A log of [page, checksum-valid undecodable frame, page].
			var log []byte
			log = appendRecord(log, recKindPage, a, pageImage(2))
			log = appendRecord(log, kind, a, nil)
			log = appendRecord(log, recKindPage, a, pageImage(3))
			if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
				t.Fatal(err)
			}
			metaBefore, err := os.ReadFile(filepath.Join(dir, metaName))
			if err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir)
			if err == nil {
				ri := s2.Recovery()
				s2.Close()
				t.Fatalf("Open succeeded (Replayed %d, TailDropped %v); want errBadRecord", ri.Replayed, ri.TailDropped)
			}
			if !errors.Is(err, errBadRecord) || !strings.Contains(err.Error(), fmt.Sprintf("unknown kind %d", kind)) {
				t.Errorf("Open = %v, want errBadRecord naming the kind", err)
			}
			for name, want := range map[string][]byte{walName: log, metaName: metaBefore} {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("refused Open changed %s (%v)", name, err)
				}
			}
		})
	}
}

// TestConcurrentWritersAndCheckpoints runs synchronous writers, writers
// behind (whose records share the log's buffer) and checkpoints at once.
func TestConcurrentWritersAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const pages = 16
	ids := make([]policy.PageID, pages)
	for i := range ids {
		ids[i] = storage.MustAllocate(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			img := make([]byte, storage.PageSize)
			buf := make([]byte, storage.PageSize)
			wctx := ctx
			if g%2 == 1 {
				wctx = storage.WithWriteBehind(ctx)
			}
			for i := 0; i < 50; i++ {
				p := ids[(g*5+i)%pages]
				img[0] = byte(g + 1)
				if err := s.Write(wctx, p, img); err != nil {
					t.Error(err)
					return
				}
				if err := s.Read(ctx, p, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Flush(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	st := s.Stats()
	if st.Reads != 200 || st.Writes != 200 {
		t.Errorf("reads/writes = %d/%d, want 200/200", st.Reads, st.Writes)
	}
	if st.WALSyncs > st.WALAppends {
		t.Errorf("more syncs (%d) than appends (%d): group commit broken", st.WALSyncs, st.WALAppends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Every acknowledged write is recoverable.
	s2 := mustOpen(t, dir)
	defer s2.Close()
	buf := make([]byte, storage.PageSize)
	for _, p := range ids {
		if err := s2.Read(ctx, p, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] < 1 || buf[0] > 4 {
			t.Errorf("page %d holds %d, not any writer's image", p, buf[0])
		}
	}
}

func TestContextCancelled(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storage.MustAllocate(s)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	buf := make([]byte, storage.PageSize)
	if err := s.Read(done, p, buf); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled read: %v", err)
	}
	if err := s.Write(done, p, buf); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled write: %v", err)
	}
}

// TestDurableBackendInterface pins the full contract, including under the
// fault-injection wrapper a test stacks on top.
func TestDurableBackendInterface(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	var b storage.DurableBackend = s
	f := storage.WithFaults(b)
	f.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Count: 1}))
	p := storage.MustAllocate(f)
	img := pageImage(1)
	if err := f.Write(ctx, p, img); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("injected fault: %v", err)
	}
	if err := f.Write(ctx, p, img); err != nil {
		t.Fatalf("write after fault budget: %v", err)
	}
	st := f.Stats()
	if st.WriteFaults != 1 || st.Writes != 1 {
		t.Errorf("faults/writes = %d/%d, want 1/1", st.WriteFaults, st.Writes)
	}
	// The faulted write never reached the WAL.
	if st.WALAppends != 2 { // alloc record + one successful page record
		t.Errorf("WALAppends = %d, want 2", st.WALAppends)
	}
}

// TestAllocRecordsReplayAsPrefix is the referee for alloc records that do
// not wait for their own fsync. It records the log of a short workload —
// allocations and page writes, one page written long after its allocation,
// no checkpoint — and replays every prefix of it into a copy of the empty
// store: cut at each record boundary and inside the record that follows, as
// a power loss could leave it. For every prefix, each page with a replayed
// image is allocated and reads back verified, NumPages counts the prefix's
// allocations, and the next Allocate hands out no page the prefix left
// allocated. The workload ends in an allocation nothing syncs: it waits in
// the log's buffer, absent from the file, until the next sync writes it out
// behind every earlier record; the log replayed is the file after that
// sync.
func TestAllocRecordsReplayAsPrefix(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	empty := copyDir(t, dir)

	type op struct {
		kind byte
		page policy.PageID
		fill byte // page records only
	}
	var ops []op
	alloc := func() policy.PageID {
		p, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op{kind: recKindAlloc, page: p})
		return p
	}
	write := func(p policy.PageID, fill byte) {
		if err := s.Write(ctx, p, pageImage(fill)); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op{kind: recKindPage, page: p, fill: fill})
	}
	a, b := alloc(), alloc()
	if got := s.Stats().WALSyncs; got != 0 {
		t.Fatalf("two allocations made %d WAL fsyncs, want 0", got)
	}
	write(a, 1)
	c := alloc()
	write(c, 2)
	write(a, 3)
	write(b, 4)
	write(alloc(), 5)
	syncs := s.Stats().WALSyncs
	alloc() // trailing: nothing references it, nothing syncs it
	if got := s.Stats().WALSyncs; got != syncs {
		t.Errorf("a trailing allocation made %d WAL fsyncs, want 0", got-syncs)
	}

	// readLog reads the log file and returns it with bounds[k], the byte
	// offset where record k starts; the file must hold exactly want's
	// records, the k-th of them want's k-th operation.
	readLog := func(want []op) ([]byte, []int) {
		t.Helper()
		log, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		var bounds []int
		r := bytes.NewReader(log)
		for {
			bounds = append(bounds, len(log)-r.Len())
			payload, err := readRecord(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("reading record %d: %v", len(bounds)-1, err)
			}
			rec, err := decodeRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			k := len(bounds) - 1
			if k >= len(want) || rec.kind != want[k].kind || rec.page != want[k].page {
				t.Fatalf("record %d is kind %d page %d, want operation %d of %+v", k, rec.kind, rec.page, k, want)
			}
		}
		if got := len(bounds) - 1; got != len(want) {
			t.Fatalf("log holds %d records for %d operations %+v", got, len(want), want)
		}
		return log, bounds
	}
	// The trailing allocation waits in the log's buffer: the file holds
	// every earlier record, the last page write having carried the
	// allocations before it out with its own frame.
	readLog(ops[:len(ops)-1])
	// The next sync writes it out, in order, after them.
	if err := s.wal.syncAll(); err != nil {
		t.Fatal(err)
	}
	log, bounds := readLog(ops)

	buf := make([]byte, storage.PageSize)
	for k := range bounds {
		cuts := []int{bounds[k]}
		if k < len(ops) {
			cuts = append(cuts, (bounds[k]+bounds[k+1])/2)
		}
		for _, cut := range cuts {
			torn := cut != bounds[k]
			// The state the first k operations leave.
			live := make(map[policy.PageID]bool)
			images := make(map[policy.PageID]byte)
			for _, o := range ops[:k] {
				switch o.kind {
				case recKindAlloc:
					live[o.page] = true
				case recKindPage:
					images[o.page] = o.fill
				}
			}

			rs := mustOpen(t, copyDir(t, empty))
			n, tail, err := rs.replayFrom(bytes.NewReader(log[:cut]))
			if err != nil || n != k || tail != torn {
				t.Fatalf("cut %d: replayed %d (torn %v, %v), want %d (torn %v)", cut, n, tail, err, k, torn)
			}
			for p, fill := range images {
				if !rs.isAllocated(p) {
					t.Errorf("prefix %d: page %d has a replayed image but is not allocated", k, p)
					continue
				}
				if err := rs.Read(ctx, p, buf); err != nil || !bytes.Equal(buf, pageImage(fill)) {
					t.Errorf("prefix %d: page %d reads back %d (%v), want %d", k, p, buf[0], err, fill)
				}
			}
			if got := rs.NumPages(); got != len(live) {
				t.Errorf("prefix %d: NumPages = %d, want %d", k, got, len(live))
			}
			p, err := rs.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if live[p] {
				t.Errorf("prefix %d: Allocate handed out page %d, which the prefix left allocated", k, p)
			}
			rs.Close()
		}
	}
}

// TestWriteAllocatesNothing guards the durable write path: the WAL record
// is framed in the log's own buffer and the slot trailer is stamped in the
// stripe's scratch, so an acknowledged page write — append, slot write,
// group-committed fsync — allocates nothing.
func TestWriteAllocatesNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	p := storage.MustAllocate(s)
	img := pageImage(0x5A)
	write := func() {
		img[0]++
		if err := s.Write(ctx, p, img); err != nil {
			t.Fatal(err)
		}
	}
	write() // grow the log's frame buffer once
	if got := testing.AllocsPerRun(50, write); got != 0 {
		t.Errorf("Store.Write allocates %.2f times per call, want 0", got)
	}
	behind := storage.WithWriteBehind(ctx)
	if got := testing.AllocsPerRun(50, func() {
		if err := s.Write(behind, p, img); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Store.Write behind allocates %.2f times per call, want 0", got)
	}
}

// TestWriteBehindSyncsAtFlush pins the write-behind contract in fsyncs: a
// marked Write appends and applies its image but makes no WAL fsync, the
// next Flush makes exactly one for all of them, a Flush with nothing
// pending makes none, and an unmarked Write still returns only after its
// own record is synced.
func TestWriteBehindSyncsAtFlush(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	pages := []policy.PageID{storage.MustAllocate(s), storage.MustAllocate(s), storage.MustAllocate(s)}
	if err := s.Flush(ctx); err != nil { // publishes the allocations
		t.Fatal(err)
	}
	syncs := func() uint64 { return s.Stats().WALSyncs }
	base := syncs()
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := syncs() - base; got != 0 {
		t.Errorf("Flush with nothing pending made %d WAL fsyncs, want 0", got)
	}

	behind := storage.WithWriteBehind(ctx)
	for i, p := range pages {
		if err := s.Write(behind, p, pageImage(byte(0x10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := syncs() - base; got != 0 {
		t.Errorf("%d marked writes made %d WAL fsyncs, want 0", len(pages), got)
	}
	buf := make([]byte, storage.PageSize)
	if err := s.Read(ctx, pages[1], buf); err != nil || buf[0] != 0x11 {
		t.Errorf("page after a marked write = %#x (%v), want the new image 0x11", buf[0], err)
	}
	// A crash that keeps the page cache (kill -9) keeps the records too.
	img := copyDir(t, dir)
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := syncs() - base; got != 1 {
		t.Errorf("the Flush after %d marked writes made %d WAL fsyncs, want 1", len(pages), got)
	}

	if err := s.Write(ctx, pages[0], pageImage(0x20)); err != nil {
		t.Fatal(err)
	}
	s.wal.mu.Lock()
	synced, appended := s.wal.synced, s.wal.appended
	s.wal.mu.Unlock()
	if got := syncs() - base; got != 2 || synced != appended {
		t.Errorf("unmarked Write returned after %d WAL fsyncs with the log synced through %d of %d, want 2 and all", got, synced, appended)
	}

	s2 := mustOpen(t, img)
	defer s2.Close()
	for i, p := range pages {
		if err := s2.Read(ctx, p, buf); err != nil || buf[0] != byte(0x10+i) {
			t.Errorf("crash image page %d = %#x (%v), want %#x", p, buf[0], err, 0x10+i)
		}
	}
}

// TestKilledStoreLosesOnlyTheLogBuffer is the kill model of the log
// buffer: a killed process keeps what it wrote to its files and loses what
// its log still buffered — here allocations and images written behind. The
// store directory is copied while the store is open, as the kill leaves it,
// and the copy reopened: every synchronously acknowledged image reads back,
// every allocated page verifies, a page whose write-behind record was lost
// reads as its last logged image or as its slot, and an id whose
// allocation was lost is handed out again reading as zeros.
func TestKilledStoreLosesOnlyTheLogBuffer(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	behind := storage.WithWriteBehind(ctx)
	var pages []policy.PageID
	for range 6 {
		pages = append(pages, storage.MustAllocate(s))
	}
	acked := make(map[policy.PageID]byte)  // synchronously acknowledged, not overwritten
	logged := make(map[policy.PageID]byte) // last image whose record reached the file
	slot := make(map[policy.PageID]byte)   // last image applied to the slot
	for i, p := range pages[:4] {
		fill := byte(1 + i)
		if err := s.Write(ctx, p, pageImage(fill)); err != nil {
			t.Fatal(err)
		}
		acked[p], logged[p], slot[p] = fill, fill, fill
	}
	// Records nobody waits on: two pages with a logged image written again
	// behind, two written behind for the first time, and a trailing
	// allocation written behind too.
	for i, p := range []policy.PageID{pages[0], pages[1], pages[4], pages[5]} {
		fill := byte(0x10 + i)
		if err := s.Write(behind, p, pageImage(fill)); err != nil {
			t.Fatal(err)
		}
		delete(acked, p)
		slot[p] = fill
	}
	lost := storage.MustAllocate(s)
	if err := s.Write(behind, lost, pageImage(0x77)); err != nil {
		t.Fatal(err)
	}
	s.wal.mu.Lock()
	buffered := len(s.wal.buf)
	s.wal.mu.Unlock()
	if buffered == 0 {
		t.Fatal("the writes behind left nothing in the log's buffer")
	}

	img := copyDir(t, dir) // the kill: files as written, buffer gone
	s2 := mustOpen(t, img)
	defer s2.Close()
	if got := s2.NumPages(); got != len(pages) {
		t.Fatalf("NumPages = %d after the kill, want the %d allocations a synced write carried out", got, len(pages))
	}
	buf := make([]byte, storage.PageSize)
	for p := range policy.PageID(s2.NumPages()) {
		if err := s2.Read(ctx, p, buf); err != nil {
			t.Errorf("page %d does not verify after the kill: %v", p, err)
			continue
		}
		if fill, ok := acked[p]; ok && !bytes.Equal(buf, pageImage(fill)) {
			t.Errorf("acknowledged page %d reads %#x, want %#x", p, buf[0], fill)
		}
		if _, ok := acked[p]; ok {
			continue
		}
		if want, ok := logged[p]; (!ok || !bytes.Equal(buf, pageImage(want))) && !bytes.Equal(buf, pageImage(slot[p])) {
			t.Errorf("page %d written behind reads %#x, want its logged image (%#x, logged %v) or its slot %#x",
				p, buf[0], want, ok, slot[p])
		}
	}
	p, err := s2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if p != lost {
		t.Fatalf("Allocate after the kill = page %d, want the lost allocation's id %d", p, lost)
	}
	if err := s2.Read(ctx, p, buf); err != nil || !bytes.Equal(buf, pageImage(0)) {
		t.Errorf("page %d, allocated again, reads %#x (%v), want zeros", p, buf[0], err)
	}
}

// TestKilledSlotWriteReplays: Linux stops a buffered write at a page-cache
// boundary when a fatal signal is pending, and a 4120-byte slot spans two
// pages, so a process killed during a synchronous write's pwrite leaves the
// slot half new image, half old image and trailer. After a checkpoint that
// slot was the page's only copy, so the write's own record must be in the
// log file before the pwrite starts, for replay to rebuild the slot.
// RLIMIT_FSIZE stops the pwrite half way, as the kill does (the runtime
// ignores the SIGXFSZ it raises), and the store directory is copied as the
// kill leaves it, the log buffer lost.
func TestKilledSlotWriteReplays(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	var p policy.PageID
	for range 4 {
		p = storage.MustAllocate(s)
	}
	if err := s.Write(ctx, p, pageImage(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	cut := lim
	cut.Cur = uint64(s.slotOff(p) + storage.PageSize/2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &cut); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	werr := s.Write(ctx, p, pageImage(2))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if werr == nil {
		t.Fatal("a write past RLIMIT_FSIZE succeeded")
	}

	s2 := mustOpen(t, copyDir(t, dir))
	defer s2.Close()
	buf := make([]byte, storage.PageSize)
	if err := s2.Read(ctx, p, buf); err != nil {
		t.Fatalf("page %d after a write killed mid-pwrite: %v", p, err)
	}
	if !bytes.Equal(buf, pageImage(1)) && !bytes.Equal(buf, pageImage(2)) {
		t.Errorf("page %d reads %#x, want its checkpointed image 0x1 or the killed write's 0x2", p, buf[0])
	}
}

// TestLogBufferBatchesSyscalls pins the batching as counts: 300 page
// writes behind, with their allocations, write the log in at most one
// write() per logBufSize of records plus the sync's own, and grow pages.db
// at most twice; a synchronous write then costs one write() for itself.
func TestLogBufferBatchesSyscalls(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	writes0, extends0 := s.SyscallCounts()
	behind := storage.WithWriteBehind(ctx)
	const n = 300
	var last policy.PageID
	for i := range n {
		last = storage.MustAllocate(s)
		if err := s.Write(behind, last, pageImage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.wal.syncAll(); err != nil {
		t.Fatal(err)
	}
	logBytes := s.Stats().WALBytes
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != logBytes {
		t.Fatalf("log file after the sync: %d bytes (%v), want all %d appended", fi.Size(), err, logBytes)
	}
	writes, extends := s.SyscallCounts()
	writes, extends = writes-writes0, extends-extends0
	t.Logf("%d writes behind: %d log bytes in %d write() calls, %d extensions", n, logBytes, writes, extends)
	if limit := uint64((logBytes+logBufSize-1)/logBufSize) + 1; writes > limit {
		t.Errorf("%d log bytes took %d write() calls, want at most %d", logBytes, writes, limit)
	}
	if extends > 2 {
		t.Errorf("%d allocations grew pages.db %d times, want at most 2", n, extends)
	}
	if err := s.Write(ctx, last, pageImage(1)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.SyscallCounts(); got != writes0+writes+1 {
		t.Errorf("a synchronous write made %d log write() calls, want 1", got-writes0-writes)
	}
}

// TestSynchronousWriteIsOneWriteOneFsync pins what an acknowledged write
// costs the log: on an idle store one synchronous Write makes exactly one
// write() and one fsync, and after write-behind records it carries them in
// that same single write().
func TestSynchronousWriteIsOneWriteOneFsync(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	pages := make([]policy.PageID, 4)
	for i := range pages {
		pages[i] = storage.MustAllocate(s)
	}
	if err := s.wal.syncAll(); err != nil { // the allocations: idle from here
		t.Fatal(err)
	}
	counts := func() (logWrites, syncs uint64) {
		logWrites, _ = s.SyscallCounts()
		return logWrites, s.Stats().WALSyncs
	}
	check := func(what string, w0, s0, wantWrites, wantSyncs uint64) {
		t.Helper()
		if w, sy := counts(); w-w0 != wantWrites || sy-s0 != wantSyncs {
			t.Errorf("%s: %d log write() calls and %d WAL fsyncs, want %d and %d", what, w-w0, sy-s0, wantWrites, wantSyncs)
		}
	}

	w0, s0 := counts()
	if err := s.Write(ctx, pages[0], pageImage(1)); err != nil {
		t.Fatal(err)
	}
	check("a synchronous write on an idle store", w0, s0, 1, 1)

	w0, s0 = counts()
	behind := storage.WithWriteBehind(ctx)
	for i, p := range pages[1:] {
		if err := s.Write(behind, p, pageImage(byte(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	check("three writes behind", w0, s0, 0, 0)
	if err := s.Write(ctx, pages[0], pageImage(9)); err != nil {
		t.Fatal(err)
	}
	check("three writes behind and a synchronous one", w0, s0, 1, 1)
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != s.Stats().WALBytes {
		t.Errorf("log file after the synchronous write: %d bytes (%v), want all %d appended", fi.Size(), err, s.Stats().WALBytes)
	}
}

// TestDirSyncUnsupportedIsOnlyEINVAL: the checkpoint drops a directory
// fsync's error only when the filesystem cannot fsync directories at all.
func TestDirSyncUnsupportedIsOnlyEINVAL(t *testing.T) {
	for _, c := range []struct {
		err  error
		want bool
	}{
		{syscall.EINVAL, true},
		{&os.PathError{Op: "sync", Path: "dir", Err: syscall.EINVAL}, true},
		{syscall.EIO, false},
		{&os.PathError{Op: "sync", Path: "dir", Err: syscall.EIO}, false},
		{syscall.ENOSPC, false},
		{os.ErrClosed, false},
	} {
		if got := dirSyncUnsupported(c.err); got != c.want {
			t.Errorf("dirSyncUnsupported(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
