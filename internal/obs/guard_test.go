package obs

import (
	"sync/atomic"
	"testing"
)

// TestObsOverheadGuard runs BenchmarkObsOverhead's loop via
// testing.Benchmark and fails if a combined atomic counter add plus
// histogram record exceeds the ceiling. The expected cost is ~40 ns
// (see DESIGN.md §12); the ceiling is 5x that so shared CI boxes do
// not flake, while still catching a regression that would, say, put a
// lock or an allocation on the record path. Skipped under -race (the
// detector multiplies atomic costs) and in -short mode.
func TestObsOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("overhead guard is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping overhead guard in short mode")
	}
	res := testing.Benchmark(func(b *testing.B) {
		var c atomic.Uint64
		h := NewHistogram()
		v := int64(0)
		for i := 0; i < b.N; i++ {
			c.Add(1)
			h.Observe(v)
			v = (v + 4097) & (1<<20 - 1)
		}
	})
	const ceilingNs = 200
	if got := res.NsPerOp(); got > ceilingNs {
		t.Fatalf("counter+histogram record costs %d ns/op, ceiling %d ns", got, ceilingNs)
	}
	if res.AllocsPerOp() != 0 {
		t.Fatalf("record path allocates %d objects/op, must be 0", res.AllocsPerOp())
	}
}
