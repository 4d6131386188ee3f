package obs

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkObsOverhead measures the combined cost of one hot-path record:
// an atomic counter add plus a histogram observation — exactly what an
// instrumented pool fetch pays per operation. The counter is an atomic the
// layer keeps anyway, exposed through a CounterFunc collector. The
// time.Now() calls are benchmarked separately below, since the caller pays
// them only when metrics are configured. DESIGN.md §12 quotes the measured
// cost; TestObsOverheadGuard enforces a CI-noise-tolerant ceiling.
func BenchmarkObsOverhead(b *testing.B) {
	var c atomic.Uint64
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			c.Add(1)
			h.Observe(v)
			v = (v + 4097) & (1<<20 - 1)
		}
	})
}

// BenchmarkObsOverheadDisabled measures the same record against a nil
// histogram — the disabled configuration every un-instrumented caller
// runs. The counter add is not part of it: that atomic is the layer's own,
// kept whether or not metrics are on. This must be one predictable branch.
func BenchmarkObsOverheadDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			h.Observe(v)
			v = (v + 4097) & (1<<20 - 1)
		}
	})
}

// BenchmarkObsTimedRecord adds the two time.Now() calls an instrumented
// latency path pays around the work it measures.
func BenchmarkObsTimedRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		h.ObserveSince(start)
	}
}

func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 100000; i++ {
		h.Observe(int64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		_ = s.Quantile(0.99)
	}
}

// BenchmarkUnsampledProbe is what a layer pays per probe site when the
// request is not sampled: the context lookup, then a Start/Finish pair on
// the empty trace it returns. The context holds one unrelated value, so
// the lookup walks a level before it misses. TestSpanOverheadGuard gates
// the Start/Finish part alone.
func BenchmarkUnsampledProbe(b *testing.B) {
	type otherKey struct{}
	ctx := context.WithValue(context.Background(), otherKey{}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := TraceFrom(ctx).Start(SpanDiskRead)
		s.Finish(int64(i))
	}
}
