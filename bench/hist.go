package main

import (
	"math"
	"math/bits"
)

// The latency histogram is log-linear with 128 linear sub-buckets per power
// of two, so a bucket is at most 1/128 (0.78 %) wide relative to its lower
// edge. Memory is fixed (histBuckets counters) whatever the sample count:
// PR 11's per-op latency slices made rss_peak_mb measure the harness.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp caps recorded values below 2^histMaxExp ns (~18 minutes);
	// anything larger lands in the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// Hist is a fixed-memory histogram of nanosecond durations. It is not safe
// for concurrent use: each client records into its own and the harness
// merges them after the window.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// histBucket maps a value to its bucket. Values below histSub are exact.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		return histBuckets - 1
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return (shift+1)<<histSubBits + int((v>>uint(shift))&(histSub-1))
}

// histBounds returns bucket b's value range [lo, hi).
func histBounds(b int) (lo, hi uint64) {
	if b < histSub {
		return uint64(b), uint64(b) + 1
	}
	shift := uint(b>>histSubBits) - 1
	lo = (histSub + uint64(b&(histSub-1))) << shift
	return lo, lo + 1<<shift
}

// Record adds one duration in nanoseconds (negative values count as zero).
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Merge adds o's samples into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Reset empties the histogram.
func (h *Hist) Reset() { *h = Hist{} }

// Quantile returns the q-quantile (0 < q <= 1) in nanoseconds, or 0 for an
// empty histogram: the bucket holding the ceil(q*n)-th smallest sample,
// interpolated linearly by that sample's rank within the bucket, so a value
// is not rounded to one of a bucket's few readings.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(rank, 1)
	var seen uint64
	for b, c := range h.counts {
		if seen+c >= rank {
			lo, hi := histBounds(b)
			if hi-lo == 1 {
				return float64(lo) // the small buckets are exact
			}
			return float64(lo) + float64(hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0 // unreachable: seen reaches n >= rank
}
