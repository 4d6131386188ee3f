package file

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
	"repro/internal/storage/storagetest"
)

// The backend benchmarks run the same page workload over the in-memory
// simulator and the durable file store, so BENCH_storage.json (written by
// `make bench-save`) tracks the price of durability — WAL append, group
// commit fsync, checkpoint — against the zero-cost baseline.

func benchBackends(b *testing.B, fn func(b *testing.B, bk storage.Backend)) {
	b.Run("sim", func(b *testing.B) {
		fn(b, sim.New(sim.ServiceModel{}))
	})
	b.Run("file", func(b *testing.B) {
		s, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		fn(b, s)
	})
}

func benchPages(b *testing.B, bk storage.Backend, n int) []policy.PageID {
	b.Helper()
	ids := make([]policy.PageID, n)
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		ids[i] = storagetest.MustAllocate(bk)
		buf[0] = byte(i)
		if err := bk.Write(context.Background(), ids[i], buf); err != nil {
			b.Fatal(err)
		}
	}
	return ids
}

// BenchmarkBackendWrite is a single-writer page overwrite loop: on the
// file store every iteration pays one WAL append plus one (unbatched)
// commit fsync — the worst case group commit exists to amortise.
func BenchmarkBackendWrite(b *testing.B) {
	benchBackends(b, func(b *testing.B, bk storage.Backend) {
		ids := benchPages(b, bk, 64)
		buf := make([]byte, storage.PageSize)
		b.SetBytes(storage.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf[0] = byte(i)
			if err := bk.Write(context.Background(), ids[i%len(ids)], buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBackendWriteParallel drives concurrent writers over disjoint
// pages: the file store's leader/follower group commit batches their
// fsyncs, so per-op cost should drop well below the serial write path.
func BenchmarkBackendWriteParallel(b *testing.B) {
	benchBackends(b, func(b *testing.B, bk storage.Backend) {
		ids := benchPages(b, bk, 256)
		var next atomic.Int64
		b.SetBytes(storage.PageSize)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			buf := make([]byte, storage.PageSize)
			for pb.Next() {
				id := ids[int(next.Add(1))%len(ids)]
				if err := bk.Write(context.Background(), id, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkBackendRead is the page fetch path: the file store serves it
// with one pread under a shared stripe latch, no WAL involvement.
func BenchmarkBackendRead(b *testing.B) {
	benchBackends(b, func(b *testing.B, bk storage.Backend) {
		ids := benchPages(b, bk, 64)
		buf := make([]byte, storage.PageSize)
		b.SetBytes(storage.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bk.Read(context.Background(), ids[i%len(ids)], buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpoint measures the FLUSH barrier on the file store: page
// file fsync, meta publish, WAL truncate. One dirty page per iteration
// keeps the WAL non-empty so truncation does real work.
func BenchmarkCheckpoint(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id := storagetest.MustAllocate(s)
	buf := make([]byte, storage.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		if err := s.Write(context.Background(), id, buf); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures redo replay throughput: build a WAL of page
// images, then time Open's replay of it.
func BenchmarkRecovery(b *testing.B) {
	for _, records := range []int{64, 1024} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			ids := benchPages(b, s, 16)
			buf := make([]byte, storage.PageSize)
			for i := 0; i < records; i++ {
				if err := s.Write(context.Background(), ids[i%len(ids)], buf); err != nil {
					b.Fatal(err)
				}
			}
			// Abandon without Close: the WAL holds every record above.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				img := copyBenchDir(b, dir)
				b.StartTimer()
				r, err := Open(img)
				if err != nil {
					b.Fatal(err)
				}
				if r.Recovery().Replayed == 0 {
					b.Fatal("nothing replayed")
				}
				b.StopTimer()
				r.Close()
				b.StartTimer()
			}
		})
	}
}

func copyBenchDir(b *testing.B, src string) string {
	b.Helper()
	dst := b.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return dst
}
