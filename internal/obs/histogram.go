package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: the first subBuckets buckets hold the values
// 0..subBuckets-1 exactly; above that, each power-of-two octave is split
// into subBuckets log-spaced buckets, so any recorded value lands in a
// bucket whose width is at most 1/subBuckets of its magnitude (±12.5%
// relative quantile error with subBuckets=4). The geometry is fixed at
// compile time: no configuration, no allocation, and snapshots from any
// two histograms merge bucket-for-bucket.
const (
	subBucketBits = 2
	subBuckets    = 1 << subBucketBits // 4
	// numBuckets covers the full non-negative int64 range: 4 exact buckets
	// plus 4 buckets per octave for octaves 2^2..2^62.
	numBuckets = subBuckets * 62
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	h := bits.Len64(v) - 1 // MSB position, >= subBucketBits
	e := h - subBucketBits // octave above the exact range
	sub := (v >> uint(e)) & (subBuckets - 1)
	b := subBuckets*(e+1) + int(sub)
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketBounds returns bucket b's half-open value range [lo, hi).
func bucketBounds(b int) (lo, hi uint64) {
	if b < subBuckets {
		return uint64(b), uint64(b) + 1
	}
	e := uint(b/subBuckets - 1)
	sub := uint64(b % subBuckets)
	lo = (subBuckets + sub) << e
	return lo, lo + 1<<e
}

// Histogram is a fixed-geometry, log-scale histogram safe for concurrent
// recording: one atomic bucket increment, an atomic sum add, and a CAS max
// per observation, no locks, no allocation. Observe on a nil *Histogram is
// a no-op, so instrumented paths carry optional histogram fields freely.
//
// Values are raw int64s in whatever unit the caller records (the registry
// notes a nanoseconds→seconds scale for latency families at exposition).
// Negative observations clamp to zero.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	// ex retains one traced observation per latency quartile — see
	// exemplar.go. Untraced observations never touch it.
	ex [exemplarSlots]atomic.Pointer[Exemplar]
	// scale is applied at exposition only (set by the registry; 0 = 1).
	scale float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in nanoseconds — the
// idiom for latency families.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnapshot is a point-in-time copy of a histogram, mergeable with
// snapshots of any other histogram (the geometry is global). Under
// concurrent recording the copied fields are individually exact but not
// mutually atomic — the usual monitoring contract.
type HistSnapshot struct {
	Count  uint64
	Sum    int64
	Max    int64
	Counts [numBuckets]uint64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Merge adds o's observations into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
}

// Quantile returns the q-quantile (0 < q <= 1) in the histogram's raw
// unit, interpolated linearly inside the target bucket and clamped to the
// recorded maximum. Zero observations yield zero.
func (s *HistSnapshot) Quantile(q float64) float64 {
	// Rank against the bucket total, not s.Count: under concurrent
	// recording the two can differ transiently, and the walk below must
	// terminate inside the buckets it is iterating.
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(b)
			if b < subBuckets {
				// An exact bucket holds the one value lo: interpolating
				// towards hi would report a quantile above the maximum
				// (an all-zero histogram's p50 as half a unit).
				return float64(lo)
			}
			frac := float64(target-cum) / float64(c)
			v := float64(lo) + frac*float64(hi-lo)
			if s.Max > 0 && v > float64(s.Max) {
				v = float64(s.Max)
			}
			return v
		}
		cum += c
	}
	return float64(s.Max)
}

// Mean returns the mean observation in the raw unit, or 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// HistSummary is the compact, JSON-serialisable digest of a histogram that
// travels on the STATS wire response: observation count plus p50/p95/p99,
// max and mean in the family's exposition unit (seconds for latency
// families, raw otherwise).
type HistSummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// Summary digests the histogram's current state in its exposition unit.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	s := h.Snapshot()
	return s.summary(h.scale)
}

func (s *HistSnapshot) summary(scale float64) HistSummary {
	if scale == 0 {
		scale = 1
	}
	return HistSummary{
		Count: s.Count,
		P50:   s.Quantile(0.50) * scale,
		P95:   s.Quantile(0.95) * scale,
		P99:   s.Quantile(0.99) * scale,
		Max:   float64(s.Max) * scale,
		Mean:  s.Mean() * scale,
	}
}
