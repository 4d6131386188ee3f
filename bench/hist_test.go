package main

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// latencySample draws n log-uniform durations between 100 ns and 10 ms, the
// range the workloads' latencies span.
func latencySample(seed uint64, n int) []int64 {
	rng := stats.NewRNG(seed)
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(100 * math.Pow(1e5, rng.Float64()))
	}
	return v
}

func exactQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	return float64(sorted[max(rank, 1)-1])
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	sample := latencySample(1, 200000)
	var h Hist
	for _, v := range sample {
		h.Record(v)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 0.999, 1} {
		got, want := h.Quantile(q), exactQuantile(sample, q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%g: histogram %.1f, sorted slice %.1f (%.2f%% off)", q, got, want, rel*100)
		}
	}
	if h.Count() != uint64(len(sample)) {
		t.Errorf("count = %d, want %d", h.Count(), len(sample))
	}
}

func TestHistBucketsCoverEveryValueWithinWidth(t *testing.T) {
	prevHi := uint64(0)
	for b := 0; b < histBuckets; b++ {
		lo, hi := histBounds(b)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", b, lo, prevHi)
		}
		if histBucket(lo) != b || histBucket(hi-1) != b {
			t.Fatalf("bucket %d [%d,%d) does not hold its own edges", b, lo, hi)
		}
		if lo >= histSub && float64(hi-lo)/float64(lo) > 1.0/histSub {
			t.Fatalf("bucket %d [%d,%d) is wider than 1/%d of its lower edge", b, lo, hi, histSub)
		}
		prevHi = hi
	}
	if histBucket(math.MaxUint64) != histBuckets-1 {
		t.Error("an over-range value does not land in the last bucket")
	}
}

func TestHistMergeEqualsRecordingTogether(t *testing.T) {
	a, b := latencySample(2, 5000), latencySample(3, 7000)
	var ha, hb, both Hist
	for _, v := range a {
		ha.Record(v)
		both.Record(v)
	}
	for _, v := range b {
		hb.Record(v)
		both.Record(v)
	}
	ha.Merge(&hb)
	if ha != both {
		t.Error("merged histogram differs from one that recorded both samples")
	}
	ha.Reset()
	if ha.Count() != 0 || ha.Quantile(0.5) != 0 {
		t.Error("reset histogram is not empty")
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h Hist
	v := int64(1)
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(v); v += 977 }); allocs != 0 {
		t.Errorf("Record allocates %.1f times per call", allocs)
	}
}
