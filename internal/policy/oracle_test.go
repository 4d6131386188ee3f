package policy

import (
	"slices"
	"testing"
)

// oraclePages is the page universe of FuzzOraclesMatchBruteForce: small,
// so that β ties, refusals and evictions are common.
const oraclePages = 16

// bruteA0 is Definition 3.1 transcribed with a linear scan: on a miss with
// every frame full, the resident page of least (β, page) is replaced by the
// referenced page if, and only if, the referenced page's β is larger.
type bruteA0 struct {
	capacity int
	probs    map[PageID]float64
	resident []PageID
}

func (b *bruteA0) reference(p PageID) bool {
	if slices.Contains(b.resident, p) {
		return true
	}
	if len(b.resident) < b.capacity {
		b.resident = append(b.resident, p)
		return false
	}
	low := 0
	for i, q := range b.resident {
		m := b.resident[low]
		if b.probs[q] < b.probs[m] || b.probs[q] == b.probs[m] && q < m {
			low = i
		}
	}
	if b.probs[p] > b.probs[b.resident[low]] {
		b.resident[low] = p
	}
	return false
}

// bruteBelady is B0 transcribed with a linear scan: on a miss with every
// frame full, the resident page whose next reference lies farthest ahead
// is evicted, found by scanning the rest of the trace. Pages never
// referenced again rank beyond the horizon, the one last referenced
// earliest farthest; ties go to the larger page id.
type bruteBelady struct {
	capacity int
	trace    []PageID
	cursor   int
	resident []PageID
	lastRef  map[PageID]int
}

// nextUse returns the rank of resident page q's next reference after the
// current position.
func (b *bruteBelady) nextUse(q PageID) int {
	for j := b.cursor; j < len(b.trace); j++ {
		if b.trace[j] == q {
			return j
		}
	}
	return 2*len(b.trace) - b.lastRef[q]
}

func (b *bruteBelady) reference(p PageID) bool {
	now := b.cursor
	b.cursor++
	defer func() { b.lastRef[p] = now }()
	if slices.Contains(b.resident, p) {
		return true
	}
	if len(b.resident) < b.capacity {
		b.resident = append(b.resident, p)
		return false
	}
	far := 0
	for i, q := range b.resident {
		nq, nf := b.nextUse(q), b.nextUse(b.resident[far])
		if nq > nf || nq == nf && q > b.resident[far] {
			far = i
		}
	}
	b.resident[far] = p
	return false
}

// FuzzOraclesMatchBruteForce replays a fuzzed page stream through A0 and
// Belady and through their linear-scan transcriptions, at a fuzzed
// capacity and β vector (page i gets β = beta[i]/8 in eighths, so ties are
// common; pages past the vector are unknown, β = 0). Every reference must
// agree on hit or miss and leave the same pages resident, which pins each
// admission, each refusal and each victim.
func FuzzOraclesMatchBruteForce(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2}, uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3}, uint8(3), []byte{4, 4, 4, 4, 4})
	f.Add([]byte{15, 14, 15, 3, 3, 9, 1, 15, 2, 14, 9, 9, 0}, uint8(0), []byte{})
	f.Add([]byte{5, 6, 5, 6, 7, 8, 5, 9, 10, 6, 11, 5}, uint8(1), []byte{0, 0, 0, 0, 0, 7, 7, 1, 2})
	f.Fuzz(func(t *testing.T, raw []byte, capRaw uint8, beta []byte) {
		capacity := int(capRaw%6) + 1
		probs := make(map[PageID]float64)
		for i, b := range beta[:min(len(beta), oraclePages)] {
			probs[PageID(i)] = float64(b%8) / 8
		}
		trace := make([]PageID, len(raw))
		for i, x := range raw {
			trace[i] = PageID(x % oraclePages)
		}
		a0 := NewA0(capacity)
		a0.SetProbabilities(probs)
		opt := NewBelady(capacity)
		opt.SetTrace(trace)
		bA0 := &bruteA0{capacity: capacity, probs: probs}
		bOpt := &bruteBelady{capacity: capacity, trace: trace, lastRef: map[PageID]int{}}
		oracles := []struct {
			c        Cache
			ref      func(PageID) bool
			resident *[]PageID
		}{
			{a0, bA0.reference, &bA0.resident},
			{opt, bOpt.reference, &bOpt.resident},
		}
		for i, p := range trace {
			for _, o := range oracles {
				if got, want := o.c.Reference(p), o.ref(p); got != want {
					t.Fatalf("%s ref %d (page %d): hit=%v, brute force hit=%v", o.c.Name(), i, p, got, want)
				}
				if o.c.Len() != len(*o.resident) {
					t.Fatalf("%s ref %d: %d resident, brute force %d", o.c.Name(), i, o.c.Len(), len(*o.resident))
				}
				for q := PageID(0); q < oraclePages; q++ {
					if got, want := o.c.Resident(q), slices.Contains(*o.resident, q); got != want {
						t.Fatalf("%s ref %d (page %d): page %d resident=%v, brute force %v (brute force holds %v)",
							o.c.Name(), i, p, q, got, want, *o.resident)
					}
				}
			}
		}
	})
}
