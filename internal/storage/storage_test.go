package storage

import (
	"testing"

	"repro/internal/policy"
)

// TestStripeIndex pins range, determinism and dispersion of the shared
// stripe hash every backend uses.
func TestStripeIndex(t *testing.T) {
	const n = 32
	seen := make(map[int]bool)
	for p := 0; p < 4096; p++ {
		idx := StripeIndex(policy.PageID(p), n)
		if idx < 0 || idx >= n {
			t.Fatalf("StripeIndex(%d) = %d, outside [0, %d)", p, idx, n)
		}
		if idx != StripeIndex(policy.PageID(p), n) {
			t.Fatalf("StripeIndex(%d) not deterministic", p)
		}
		seen[idx] = true
	}
	if len(seen) != n {
		t.Errorf("4096 sequential pages hit only %d/%d stripes", len(seen), n)
	}
}
